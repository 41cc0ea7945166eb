package main

import (
	"strings"
	"testing"
	"time"
)

func TestParseProcStat(t *testing.T) {
	// utime=1234 stime=567 ticks at 100 Hz. The command name contains a
	// space and a ')' to prove fields are counted from the last ')'.
	stat := "4242 (cataly std) x) S 1 4242 4242 0 -1 4194560 2101 0 3 0 1234 567 0 0 20 0 9 0 8675309 1269456896 5200 18446744073709551615 1 1 0 0 0 0 0 0 2143420159 0 0 0 17 1 0 0 0 0 0 0 0 0 0 0 0 0 0"
	got, err := parseProcStat(stat)
	if err != nil {
		t.Fatal(err)
	}
	if want := 18010 * time.Millisecond; got != want {
		t.Errorf("CPU = %v, want %v", got, want)
	}
	for _, bad := range []string{"", "1 (x) S 1 2", "1 (x) S 1 2 3 4 5 6 7 8 9 10 eleven 12 13"} {
		if _, err := parseProcStat(bad); err == nil {
			t.Errorf("parseProcStat(%q) accepted malformed input", bad)
		}
	}
}

func TestParseVmHWM(t *testing.T) {
	status := "Name:\tcatalystd\nVmPeak:\t 1269456 kB\nVmHWM:\t   20488 kB\nVmRSS:\t   19000 kB\n"
	got, err := parseVmHWM(status)
	if err != nil || got != 20488 {
		t.Errorf("parseVmHWM = %d, %v; want 20488", got, err)
	}
	if _, err := parseVmHWM("Name:\tx\nVmRSS:\t1 kB\n"); err == nil {
		t.Error("a status without VmHWM was accepted")
	}
	if _, err := parseVmHWM("VmHWM:\t12 MB\n"); err == nil {
		t.Error("a VmHWM in an unexpected unit was accepted")
	}
}

func TestParseCPUTotals(t *testing.T) {
	total, idle, err := parseCPUTotals("cpu  100 5 50 800 45 0 0 0 0 0\ncpu0 50 2 25 400 20 0 0 0 0 0\n")
	if err != nil || total != 1000 || idle != 845 {
		t.Errorf("parseCPUTotals = %d, %d, %v; want 1000, 845", total, idle, err)
	}
	if _, _, err := parseCPUTotals("intr 1 2 3\n"); err == nil {
		t.Error("a stat file without the cpu line was accepted")
	}
}

func TestParseDrainSnapshot(t *testing.T) {
	stderr := strings.Join([]string{
		"2026/09/28 23:04:04 catalystd: draining (in-flight budget 10s)",
		"2026/09/28 23:04:04 catalystd: drain complete",
		"{",
		`  "counters": {"server.requests": 7, "server.renders.hits": 5},`,
		`  "gauges": {"server.gate.inflight": 0},`,
		`  "histograms": {"server.serve_ns": {"count": 7, "sumNs": 700, "p50Ns": 100}}`,
		"}",
		"",
	}, "\n")
	snap, err := parseDrainSnapshot([]byte(stderr))
	if err != nil {
		t.Fatal(err)
	}
	if snap.Counters["server.requests"] != 7 || snap.Histograms["server.serve_ns"].SumNs != 700 {
		t.Errorf("snapshot parsed wrong: %+v", snap)
	}
	if _, err := parseDrainSnapshot([]byte("catalystd: killed\n")); err == nil {
		t.Error("stderr without a snapshot was accepted")
	}
}

func TestFoldCounters(t *testing.T) {
	c := foldCounters([]snapshot{
		{Counters: map[string]int64{"tenant.t0.probes.hits": 3, "tenant.t0.requests": 10, "cluster.published": 2}},
		{Counters: map[string]int64{"tenant.t1.probes.hits": 4, "middleware.encode_reuses": 5, "cluster.published": 1}},
	})
	if c["middleware.probes.hits"] != 7 {
		t.Errorf("per-tenant probe hits folded to %v, want 7", c["middleware.probes.hits"])
	}
	if c["cluster.published"] != 3 {
		t.Errorf("counters not summed over daemons: %v", c["cluster.published"])
	}
	if _, ok := c["middleware.requests"]; ok {
		t.Error("tenant request counts must not fold onto a middleware counter")
	}
	if got := c.sumSuffix(".probes.hits"); got != 7 {
		t.Errorf("sumSuffix counted folded tenants twice: %v", got)
	}
}
