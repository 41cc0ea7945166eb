package harness

import (
	"context"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"cachecatalyst/internal/leakcheck"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestSchemeMatrixGolden pins the full conformance table: every scheme
// across the four corner conditions, byte-for-byte. The simulation is
// deterministic, so any diff is a behaviour change — regenerate with
// `go test ./internal/harness/ -run Golden -update` and review the diff.
func TestSchemeMatrixGolden(t *testing.T) {
	res, err := RunSchemeMatrixContext(context.Background(), QuickMatrixConfig(), MatrixSchemes)
	if err != nil {
		t.Fatal(err)
	}
	got := MatrixTable(res)

	golden := filepath.Join("testdata", "scheme_matrix.golden")
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("scheme matrix diverged from golden file.\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestSchemeMatrixShape checks the semantic claims the committed table
// rests on, independent of exact numbers.
func TestSchemeMatrixShape(t *testing.T) {
	cfg := QuickMatrixConfig()
	res, err := RunSchemeMatrixContext(context.Background(), cfg, MatrixSchemes)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != len(cfg.Grid) {
		t.Fatalf("condition rows = %d, want %d", len(res.Cells), len(cfg.Grid))
	}
	for ci, row := range res.Cells {
		if len(row) != len(MatrixSchemes) {
			t.Fatalf("cond %d: scheme columns = %d, want %d", ci, len(row), len(MatrixSchemes))
		}
		byScheme := map[Scheme]MatrixCell{}
		for _, c := range row {
			if c.Samples == 0 {
				t.Fatalf("%s @ %s: no samples", c.Scheme, c.Cond)
			}
			byScheme[c.Scheme] = c
		}
		conv := byScheme[SchemeConventional]
		cat := byScheme[SchemeCatalyst]
		rec := byScheme[SchemeCatalystRecord]
		push := byScheme[SchemeServerPush]
		// Catalyst needs fewer warm requests than conventional.
		if cat.MeanWarmRequests >= conv.MeanWarmRequests {
			t.Errorf("%s: catalyst warm reqs %.1f not below conventional %.1f",
				conv.Cond, cat.MeanWarmRequests, conv.MeanWarmRequests)
		}
		// Recording puts the JS-discovered resources in the map, so they
		// stop going to the network too.
		if rec.MeanWarmRequests >= cat.MeanWarmRequests {
			t.Errorf("%s: catalyst+record warm reqs %.1f not below catalyst %.1f",
				conv.Cond, rec.MeanWarmRequests, cat.MeanWarmRequests)
		}
		// The broken references (the corpus has BrokenFrac > 0) fail
		// under every scheme: no scheme answers a missing resource.
		for _, c := range row {
			if c.MeanErrors != conv.MeanErrors {
				t.Errorf("%s: %s errors %.1f != conventional %.1f",
					conv.Cond, c.Scheme, c.MeanErrors, conv.MeanErrors)
			}
		}
		// Push-all re-pushes the whole page on revisits: far more bytes.
		if push.MeanWarmBytes <= 2*conv.MeanWarmBytes {
			t.Errorf("%s: push warm bytes %.0f not ≫ conventional %.0f",
				conv.Cond, push.MeanWarmBytes, conv.MeanWarmBytes)
		}
	}
	// The honest cells: at the bandwidth-bound low-RTT corner, early
	// hints pay for their wire bytes without the latency headroom to win —
	// the scheme loses on FCP there while winning at high RTT.
	lowRTT := cfg.Grid[0]  // 8 Mbps / 10 ms
	highRTT := cfg.Grid[3] // 60 Mbps / 80 ms
	ehLow, _ := res.Cell(SchemeEarlyHints, lowRTT)
	convLow, _ := res.Cell(SchemeConventional, lowRTT)
	if ehLow.MeanWarmFCP <= convLow.MeanWarmFCP {
		t.Errorf("expected early-hints FCP to lose at %s: %v vs conventional %v",
			lowRTT, ehLow.MeanWarmFCP, convLow.MeanWarmFCP)
	}
	catHigh, _ := res.Cell(SchemeCatalyst, highRTT)
	convHigh, _ := res.Cell(SchemeConventional, highRTT)
	if catHigh.MeanWarmPLT >= convHigh.MeanWarmPLT {
		t.Errorf("catalyst should win at %s: %v vs %v", highRTT, catHigh.MeanWarmPLT, convHigh.MeanWarmPLT)
	}
}

// TestSchemeMatrixDeterministic: parallelism must not change a single cell.
func TestSchemeMatrixDeterministic(t *testing.T) {
	cfg := QuickMatrixConfig()
	cfg.Corpus.Sites = 2
	cfg.Grid = cfg.Grid[:2]
	a, err := RunSchemeMatrixContext(context.Background(), cfg, MatrixSchemes)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Parallelism = 8
	b, err := RunSchemeMatrixContext(context.Background(), cfg, MatrixSchemes)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("matrix results differ across parallelism levels")
	}
}

// TestSchemeMatrixCancellation: a cancelled run errors out promptly and
// leaves no goroutines behind (checked under -race by CI).
func TestSchemeMatrixCancellation(t *testing.T) {
	leakcheck.Check(t)

	// Cancelled before the run starts: nothing must execute.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunSchemeMatrixContext(ctx, QuickMatrixConfig(), MatrixSchemes); err != context.Canceled {
		t.Fatalf("pre-cancelled run: err = %v, want context.Canceled", err)
	}

	// Cancelled mid-run: the pool drains and reports the cancellation.
	ctx, cancel = context.WithCancel(context.Background())
	timer := time.AfterFunc(10*time.Millisecond, cancel)
	defer timer.Stop()
	cfg := QuickMatrixConfig()
	cfg.Corpus.Sites = 8 // enough work that the cancel lands mid-run
	if _, err := RunSchemeMatrixContext(ctx, cfg, MatrixSchemes); err != nil && err != context.Canceled {
		t.Fatalf("mid-run cancel: unexpected error %v", err)
	}
	cancel()
}

func TestMatrixConfigValidate(t *testing.T) {
	cfg := QuickMatrixConfig()
	cfg.Grid = nil
	if _, err := RunSchemeMatrixContext(context.Background(), cfg, MatrixSchemes); err == nil {
		t.Error("empty grid accepted")
	}
	cfg = QuickMatrixConfig()
	cfg.Delays = []time.Duration{time.Hour, time.Hour}
	if _, err := RunSchemeMatrixContext(context.Background(), cfg, MatrixSchemes); err == nil {
		t.Error("non-increasing delays accepted")
	}
	cfg = QuickMatrixConfig()
	cfg.Delays = nil
	if _, err := RunSchemeMatrixContext(context.Background(), cfg, MatrixSchemes); err == nil {
		t.Error("empty delays accepted")
	}
}
