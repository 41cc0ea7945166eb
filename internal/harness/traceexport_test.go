package harness

import (
	"testing"

	"cachecatalyst/internal/cachesim"
	"cachecatalyst/internal/netsim"
	"cachecatalyst/internal/webgen"
	"time"
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
