package harness

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"cachecatalyst/internal/cachesim"
	"cachecatalyst/internal/netsim"
	"cachecatalyst/internal/vclock"
	"cachecatalyst/internal/webgen"
)

func exportTestConfig() Config {
	return Config{
		Corpus:    webgen.Params{Sites: 2, Seed: 1, Scale: 0.3},
		Grid:      []netsim.Conditions{{RTT: 40 * time.Millisecond, DownlinkBps: 60e6}},
		Delays:    []time.Duration{time.Hour},
		Transport: netsim.TransportOptions{},
	}
}

func TestExportTraceReplayable(t *testing.T) {
	trace, err := ExportTrace(exportTestConfig())
	if err != nil {
		t.Fatalf("ExportTrace: %v", err)
	}
	if len(trace) == 0 {
		t.Fatal("exported trace is empty")
	}

	// Revisits re-request the same subresources, so the trace must show
	// reuse: strictly fewer distinct ids than requests.
	ids := make(map[uint64]bool)
	for i, req := range trace {
		if req.Size <= 0 {
			t.Fatalf("request %d has size %d", i, req.Size)
		}
		if i > 0 && req.Time < trace[i-1].Time {
			t.Fatalf("request %d time %d precedes predecessor %d", i, req.Time, trace[i-1].Time)
		}
		ids[req.ID] = true
	}
	if len(ids) >= len(trace) {
		t.Fatalf("no reuse in trace: %d ids across %d requests", len(ids), len(trace))
	}

	// The exported workload must be meaningful to the simulator: a
	// positive offline bound and a replayable stream.
	budget := int64(0)
	for _, req := range trace {
		budget += req.Size
	}
	budget /= 3
	ub := cachesim.UpperBound(trace, budget)
	if ub.OHR() <= 0 || ub.BHR() <= 0 {
		t.Fatalf("degenerate upper bound: OHR %v BHR %v", ub.OHR(), ub.BHR())
	}
	res := cachesim.Replay(trace, budget)
	if res.Hits == 0 {
		t.Error("GDSF replay of exported trace scored zero hits")
	}
	if res.OHR() > ub.OHR()+1e-9 {
		t.Errorf("replay OHR %v exceeds bound %v", res.OHR(), ub.OHR())
	}
}

func TestExportTraceDeterministic(t *testing.T) {
	a, err := ExportTrace(exportTestConfig())
	if err != nil {
		t.Fatalf("ExportTrace: %v", err)
	}
	b, err := ExportTrace(exportTestConfig())
	if err != nil {
		t.Fatalf("ExportTrace: %v", err)
	}
	if len(a) != len(b) {
		t.Fatalf("lengths differ across identical runs: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("request %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// TestExportTraceReproducesCommittedTrace: the committed
// harness_quick.trace, which `make cachesim` replays, is the export of
// QuickConfig, byte for byte below its comment header.
func TestExportTraceReproducesCommittedTrace(t *testing.T) {
	committed, err := os.ReadFile(filepath.Join("..", "cachesim", "testdata", "harness_quick.trace"))
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	for _, line := range strings.SplitAfter(string(committed), "\n") {
		if !strings.HasPrefix(line, "#") {
			want.WriteString(line)
		}
	}
	trace, err := ExportTrace(QuickConfig())
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := cachesim.WriteTrace(&got, trace); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Errorf("ExportTrace(QuickConfig()) wrote %d requests that differ from the committed trace's %d lines",
			len(trace), strings.Count(want.String(), "\n"))
	}
}

// visitClock is an access recorder that notes the virtual time, measured
// from the epoch, of every visit: each time at which a subresource is
// accessed that differs from the previous one's.
type visitClock struct {
	w  *World
	mu sync.Mutex
	at []time.Duration
}

func (c *visitClock) Record(string, int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if now := c.w.Clock.Now().Sub(vclock.Epoch); len(c.at) == 0 || c.at[len(c.at)-1] != now {
		c.at = append(c.at, now)
	}
}

// TestRevisitDelaysAreCumulative: the one revisit schedule, which every
// experiment and the trace export run, visits at the epoch and then at each
// delay measured from it, as Config.Delays says. Advancing the clock by each
// delay in turn would put PaperDelays' "1 w" visit at 8 d 7 h 1 m.
func TestRevisitDelaysAreCumulative(t *testing.T) {
	w := NewWorld(exportTestConfig().Corpus, 0, SchemeCatalyst, netsim.TransportOptions{})
	clock := &visitClock{w: w}
	w.Browser.WithAccessRecorder(clock)
	delays := PaperDelays()
	loads, err := w.revisit(Median5G(), delays, webgen.PagePath, webgen.SecondaryPagePath)
	if err != nil {
		t.Fatal(err)
	}
	if len(loads) != 2*(1+len(delays)) {
		t.Fatalf("%d loads, want both pages at %d visits", len(loads), 1+len(delays))
	}
	if want := append([]time.Duration{0}, delays...); !reflect.DeepEqual(clock.at, want) {
		t.Fatalf("visits at %v after the epoch, want %v", clock.at, want)
	}
}
