package cachesim

import (
	"os"
	"path/filepath"
	"testing"
)

// readTrace parses a committed trace under testdata/.
func readTrace(t *testing.T, name string) []Request {
	t.Helper()
	f, err := os.Open(filepath.Join("testdata", name))
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer f.Close()
	trace, err := ParseTrace(f)
	if err != nil {
		t.Fatalf("ParseTrace: %v", err)
	}
	return trace
}

// TestCommittedTraces keeps the checked-in traces honest: both must
// parse, show reuse, and produce a non-degenerate optimal bound — the
// properties the make cachesim smoke target and the EXPERIMENTS.md table
// rely on — and the store must neither exceed that bound nor score below
// the reference LRU.
func TestCommittedTraces(t *testing.T) {
	for _, name := range []string{"mini.trace", "harness_quick.trace"} {
		t.Run(name, func(t *testing.T) {
			trace := readTrace(t, name)
			if len(trace) == 0 {
				t.Fatal("trace is empty")
			}
			var total int64
			ids := make(map[uint64]bool)
			for _, req := range trace {
				total += req.Size
				ids[req.ID] = true
			}
			if len(ids) >= len(trace) {
				t.Fatalf("no reuse: %d ids in %d requests", len(ids), len(trace))
			}
			budget := total / 3
			ub := UpperBound(trace, budget)
			if ub.OHR() <= 0 || ub.BHR() <= 0 {
				t.Fatalf("degenerate bound: OHR %v BHR %v", ub.OHR(), ub.BHR())
			}
			res := Replay(trace, budget)
			if res.OHR() > ub.OHR()+1e-9 || res.BHR() > ub.BHR()+1e-9 {
				t.Error("GDSF exceeds the offline bound")
			}
			if lru := replayLRU(trace, budget); res.OHR() < lru.OHR() {
				t.Errorf("GDSF OHR %.4f below LRU OHR %.4f", res.OHR(), lru.OHR())
			}
		})
	}
}
