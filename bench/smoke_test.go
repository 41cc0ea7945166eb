package main

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"
)

// smokeInputs are small enough to set up in milliseconds: the first sites
// of the corpus whatever their shape, and a catalogue a fortieth the size.
var smokeInputs = inputs{siteIdx: []int{0, 1, 2, 3}, churnPages: 30, churnSubs: 200}

// TestSmokeWorkloads drives every daemon workload's handler stack over
// real loopback sockets for a fifth of a second, in process: the
// generator, the traffic sources, the bench origin and the checker, with
// no child process. Every response is checked, so this is also the test
// that the checker accepts what the seed commit serves.
func TestSmokeWorkloads(t *testing.T) {
	for _, w := range workloads {
		if w.run != nil {
			continue
		}
		t.Run(w.name, func(t *testing.T) {
			st, err := buildStack(w, w.content(1, smokeInputs), t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			defer st.close()
			srv := httptest.NewServer(st.handler)
			defer srv.Close()
			addr := strings.TrimPrefix(srv.URL, "http://")
			addrs := []string{addr}
			if w.name == "edge_tenants" {
				addrs = []string{addr, addr} // both ring members are this one stack
			}
			gen := newGenerator(1, connections, addrs, st.tr)
			gen.tick = st.tick
			defer gen.close()
			p := gen.closed(200 * time.Millisecond)
			if p.Failures != 0 {
				t.Fatalf("%d of %d operations failed, first: %v", p.Failures, p.Attempts, p.FirstErr)
			}
			if p.ok() < 10 || p.RespB == 0 {
				t.Fatalf("only %d operations, %d bytes", p.ok(), p.RespB)
			}
			switch w.name {
			case "static_revalidate":
				if share := pct(float64(p.Statuses[304]), float64(p.ok())); share < 80 {
					t.Errorf("%.0f%% of responses are 304, want about 90%%", share)
				}
			case "page_warm":
				if p.Statuses[304] == 0 || p.Statuses[200] == 0 {
					t.Errorf("want both full and conditional navigations, got %v", p.Statuses)
				}
			case "page_churn":
				if st.origin.requests.Load() <= p.ok() {
					t.Errorf("origin saw %d requests for %d operations: no probe fan-out", st.origin.requests.Load(), p.ok())
				}
			}
			o := gen.open(100*time.Millisecond, 400)
			if o.Failures != 0 || len(o.Lateness) != int(o.ok()) || o.ok() < 10 {
				t.Errorf("open loop: %d failures, %d operations, %d lateness samples", o.Failures, o.ok(), len(o.Lateness))
			}
		})
	}
}

// TestSmokeReplay runs the traced replay on a small stack of each kind and
// checks the spans say what the ledger reads from them.
func TestSmokeReplay(t *testing.T) {
	for _, name := range []string{"page_warm", "page_churn"} {
		t.Run(name, func(t *testing.T) {
			w := findWorkload(name)
			st, err := buildStack(w, w.content(1, smokeInputs), t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			defer st.close()
			led := &ledger{tr: newTracer(), m: map[string]float64{}}
			stats, err := replay(st, 1, led.tr, 60)
			if err != nil {
				t.Fatal(err)
			}
			stackMetrics(led, st, stats)
			if len(stats.reqSpans) != 60 {
				t.Fatalf("%d request spans, want 60", len(stats.reqSpans))
			}
			if name == "page_warm" {
				if led.m["server.html_ns"] <= 0 || led.m["server.html_allocs_per_op"] <= 0 {
					t.Errorf("server metrics missing: %v", led.m)
				}
				return
			}
			// Which pages are still cold when the traced pass starts depends
			// on the draw; some decoration path must have been timed.
			if led.m["catalyst.mw_cold_ns"] <= 0 && led.m["catalyst.mw_warm_ns"] <= 0 {
				t.Errorf("middleware metrics missing: %v", led.m)
			}
			self := selfTimes(led.tr.spans)
			children := 0
			for i, sp := range led.tr.spans {
				if sp.Name == "origin.serve" {
					children++
					if sp.Parent < 0 || led.tr.spans[sp.Parent].Req != sp.Req {
						t.Fatalf("child span %d is not under its request", i)
					}
				}
				if self[i] < 0 || self[i] > sp.End-sp.Start {
					t.Fatalf("span %d: self time %d outside [0, %d]", i, self[i], sp.End-sp.Start)
				}
			}
			if children == 0 {
				t.Error("the inner handler recorded no child span")
			}
		})
	}
}

// TestSmokeLedger computes the leaf-layer and client-half metrics once and
// checks every one of them came out positive.
func TestSmokeLedger(t *testing.T) {
	led := &ledger{tr: newTracer(), m: map[string]float64{}}
	s := webgenSite(1, 0, "site.test")
	led.leafLayers(s, []pageKey{{key: "/index.html", body: s.res["/index.html"].current().body}, {key: "/index.html"}})
	if err := led.clientHalf(1); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"core.extract_ns", "core.resolve_ns", "core.encode_ns", "core.encode_bytes", "core.decode_ns", "core.decide_ns", "core.inject_ns",
		"htmlparse.parse_ns_per_kb", "htmlparse.extract_ns_per_kb", "cssparse.extract_ns_per_kb",
		"etag.nonematch_ns", "etag.forbytes_ns_per_kb",
		"cachestore.get_hit_ns", "cachestore.put_ns", "cachestore.put_evict_ns", "cachestore.mixed_ns", "cachestore.replay_hit_pct",
		"delta.diff_ns_per_kb", "delta.apply_ns_per_kb", "delta.patch_ratio_pct",
		"tenant.resolve_ns", "tenant.handler_ns", "cluster.ring_owner_ns", "cluster.publish_ns", "cluster.lookup_ns",
		"resilience.gate_ns", "telemetry.observe_ns",
		"browser.load_catalyst_us", "browser.load_conventional_us", "browser.net_requests_per_load",
		"sw.handlefetch_ns", "sw.local_hit_pct", "httpcache.get_ns", "webgen.generate_ms_per_site",
	} {
		if led.m[name] <= 0 {
			t.Errorf("%s = %v, want a positive measurement", name, led.m[name])
		}
		if _, ok := units[name]; !ok {
			t.Errorf("%s is not in the per-layer table", name)
		}
	}
	for name := range led.m {
		if _, ok := units[name]; !ok {
			t.Errorf("the ledger produced %s, which the per-layer table does not declare", name)
		}
	}
}

func TestPLTQualityReadsTheSimulatorsOutput(t *testing.T) {
	cells := make([]string, 12)
	for i := range cells {
		cells[i] = fmt.Sprintf(`{"Samples": %d}`, pltHeadlineSites*5)
	}
	o := pltOutputs{
		headline: []byte(`{"Median5GReduction": 29.5, "OverallReduction": 17.25, "Sweep": {"Cells": [` + strings.Join(cells, ",") + `]}}`),
		matrix: []byte(`{"Cells": [[
			{"Scheme": 0, "Cond": {"RTT": 80000000, "DownlinkBps": 60000000}, "MeanWarmRequests": 40},
			{"Scheme": 1, "Cond": {"RTT": 80000000, "DownlinkBps": 60000000}, "MeanWarmRequests": 9.5},
			{"Scheme": 1, "Cond": {"RTT": 10000000, "DownlinkBps": 60000000}, "MeanWarmRequests": 8}]]}`),
	}
	r5g, grid, warm, err := pltQuality(o)
	if err != nil || r5g != 29.5 || grid != 17.25 || warm != 9.5 {
		t.Errorf("pltQuality = %v %v %v, %v", r5g, grid, warm, err)
	}
	o.headline = []byte(`{"Sweep": {"Cells": []}}`)
	if _, _, _, err := pltQuality(o); err == nil {
		t.Error("a sweep with no link conditions was accepted")
	}
}

// TestBenchmarkJSONMatchesTheTables holds BENCHMARK.json, which the driver
// reads, to the tables the program reports from.
func TestBenchmarkJSONMatchesTheTables(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &decl); err != nil {
		t.Fatal(err)
	}
	if strings.Join(decl.Command, " ") != "go run ./bench" || len(decl.Paths) != 1 || decl.Paths[0] != "bench" {
		t.Errorf("command %v paths %v", decl.Command, decl.Paths)
	}
	if decl.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, the program's default is %d", decl.RunSeconds, defaultSeconds)
	}
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d defined", len(decl.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if decl.Workloads[i].Name != w.name || decl.Workloads[i].Why != w.why {
			t.Errorf("workload %d: declared %q, defined %q", i, decl.Workloads[i].Name, w.name)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", w.name, len(w.why))
		}
	}
	same := func(kind string, declared, defined []metricDef) {
		if len(declared) != len(defined) {
			t.Fatalf("%s: %d declared, %d defined", kind, len(declared), len(defined))
		}
		seen := map[string]bool{}
		for i := range defined {
			if declared[i] != defined[i] {
				t.Errorf("%s %d: declared %+v, defined %+v", kind, i, declared[i], defined[i])
			}
			if seen[defined[i].Name] {
				t.Errorf("%s: %s is used twice", kind, defined[i].Name)
			}
			seen[defined[i].Name] = true
		}
	}
	same("end_to_end", decl.EndToEnd, endToEnd)
	same("per_layer", decl.PerLayer, perLayer)
	if len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics, the contract allows 128", len(perLayer))
	}
}
