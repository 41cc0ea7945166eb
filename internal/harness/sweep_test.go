package harness

import (
	"context"
	"errors"
	"testing"

	"cachecatalyst/internal/webgen"
)

// TestForEachSiteStopsAtTheFirstError: once a trial fails no further site
// starts, so a failed sweep reports its error instead of first running every
// site that is left.
func TestForEachSiteStopsAtTheFirstError(t *testing.T) {
	fail := errors.New("trial failed")
	var ran []int
	err := forEachSite(context.Background(), webgen.Params{Sites: 3, Seed: 7, Scale: 0.35}, 1, func(siteIdx int, _ *webgen.Site, _ siteMemos) error {
		ran = append(ran, siteIdx)
		return fail
	})
	if err != fail {
		t.Fatalf("forEachSite returned %v, want the trial's error", err)
	}
	if len(ran) != 1 || ran[0] != 0 {
		t.Fatalf("trials ran for sites %v after site 0 failed, want [0]", ran)
	}
}

// pltSweepSeed is the corpus seed the repository benchmark's plt_sweep runs
// its children with at -seed 1.
const pltSweepSeed = 1007

// BenchmarkPLTSweep runs plt_sweep's two children in-process, one sweep per
// op, on one worker: "headline" is `pltbench -experiment headline -full
// -sites 4` and "matrix" is `schemes -sites 5`, both at the benchmark's
// first seed. It is the profile to read before changing the simulator:
//
//	go test -run '^$' -bench PLTSweep -cpuprofile cpu.out ./internal/harness/
func BenchmarkPLTSweep(b *testing.B) {
	b.Run("headline", func(b *testing.B) {
		b.ReportAllocs()
		cfg := DefaultConfig()
		cfg.Corpus.Sites, cfg.Corpus.Seed, cfg.Parallelism = 4, pltSweepSeed, 1
		for i := 0; i < b.N; i++ {
			if _, err := RunHeadline(cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("matrix", func(b *testing.B) {
		b.ReportAllocs()
		cfg := QuickMatrixConfig()
		cfg.Corpus.Sites, cfg.Corpus.Seed, cfg.Parallelism = 5, pltSweepSeed, 1
		for i := 0; i < b.N; i++ {
			if _, err := RunSchemeMatrixContext(context.Background(), cfg, MatrixSchemes); err != nil {
				b.Fatal(err)
			}
		}
	})
}
