package harness

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"cachecatalyst/catalyst"
	"cachecatalyst/internal/browser"
	"cachecatalyst/internal/netsim"
	"cachecatalyst/internal/stats"
	"cachecatalyst/internal/webgen"
)

// DelayPoint is one revisit-delay slice of a sweep cell.
type DelayPoint struct {
	Delay            time.Duration
	MeanReductionPct float64
}

// Cell aggregates one network condition of a paired sweep.
type Cell struct {
	Cond netsim.Conditions
	// MeanReductionPct is the average PLT reduction of the treatment
	// scheme relative to the baseline over sites × delays (Figure 3's bar
	// height).
	MeanReductionPct float64
	// P10/P90ReductionPct bound the per-(site, delay) spread: a scheme
	// whose mean hides regressions on some sites shows it here.
	P10ReductionPct, P90ReductionPct float64
	// FCPReductionPct is the mean First-Contentful-Paint reduction — the
	// user-experience metric the paper defers to future work.
	FCPReductionPct float64
	ByDelay         []DelayPoint
	// MeanBasePLT / MeanTreatPLT are mean warm-load PLTs.
	MeanBasePLT, MeanTreatPLT time.Duration
	Samples                   int
}

// SweepResult is a full paired sweep (e.g. Figure 3).
type SweepResult struct {
	Base, Treatment  Scheme
	Cells            []Cell
	OverallReduction float64
}

// RunFig3 reproduces Figure 3: conventional caching vs CacheCatalyst over
// the throughput × latency grid, averaged over the corpus and the revisit
// delays.
func RunFig3(cfg Config) (*SweepResult, error) {
	return RunPairedSweep(cfg, SchemeConventional, SchemeCatalyst)
}

// RunPairedSweep measures the PLT reduction of treatment over base for
// every grid condition. Every world of both schemes loads the homepage cold
// at the virtual epoch and then reloads it at each delay (revisits); the
// virtual clocks advance identically, so both schemes see identical content
// trajectories and the comparison is paired.
func RunPairedSweep(cfg Config, base, treatment Scheme) (*SweepResult, error) {
	loads, err := revisits(context.Background(), cfg, []Scheme{base, treatment})
	if err != nil {
		return nil, err
	}
	return foldPaired(cfg, base, treatment, loads), nil
}

// revisits runs the revisit schedule of cfg.Delays on the homepage of every
// world: loads[cond][scheme][site] is its cold load, then one per delay.
func revisits(ctx context.Context, cfg Config, schemes []Scheme) ([][][][]browser.LoadResult, error) {
	if len(cfg.Delays) == 0 {
		return nil, fmt.Errorf("harness: no revisit delays")
	}
	return run(ctx, cfg, schemes, func(w *World, cond netsim.Conditions) ([]browser.LoadResult, error) {
		return w.revisit(cond, cfg.Delays, webgen.PagePath)
	})
}

// run is the one experiment runner. For every site of the corpus, every
// grid condition and every scheme, in that order, it builds one world on a
// view of the site and fills out[cond][scheme][site] with what measure
// returns for it — the loads of the world's revisit schedule, or what it
// reads off them. Each site is generated once and every world of it runs on
// a view of that one site (forEachSite). The slots are preallocated and
// indexed, never appended: workers write disjoint slots, so a fold that
// reads them in index order does not depend on Parallelism. Cancelling ctx
// stops the run promptly and leaves no goroutines behind.
func run[T any](ctx context.Context, cfg Config, schemes []Scheme, measure func(w *World, cond netsim.Conditions) (T, error)) ([][][]T, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if len(schemes) == 0 {
		return nil, fmt.Errorf("harness: no schemes")
	}
	if cfg.Corpus.Sites == 0 {
		cfg.Corpus.Sites = 100
	}
	out := make([][][]T, len(cfg.Grid))
	for ci := range out {
		out[ci] = make([][]T, len(schemes))
		for si := range out[ci] {
			out[ci][si] = make([]T, cfg.Corpus.Sites)
		}
	}
	err := forEachSite(ctx, cfg.Corpus, cfg.Parallelism, func(siteIdx int, site *webgen.Site, memos siteMemos) error {
		for ci, cond := range cfg.Grid {
			for si, scheme := range schemes {
				if err := ctx.Err(); err != nil {
					return err
				}
				v, err := measure(newWorld(site, memos, scheme, cfg.Transport), cond)
				if err != nil {
					return err
				}
				out[ci][si][siteIdx] = v
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// forEachSite calls trial once for every site of p, on up to workers
// goroutines (≤0 means GOMAXPROCS), handing it the site generated once and
// the memos made for it. trial builds every world of that site on views of
// it, with those memos, and both are dropped when trial returns, so at most
// workers sites are resident. A trial's worlds run one after another on its
// goroutine, which is what lets them share the memos. Trials fill
// index-ordered slots, so what they produce does not depend on workers.
// Once ctx is done or a trial has failed no further site starts; the first
// error is returned.
func forEachSite(ctx context.Context, p webgen.Params, workers int, trial func(siteIdx int, site *webgen.Site, memos siteMemos) error) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	// A failed trial stops the sites still queued, as a cancelled ctx does.
	ctx, stop := context.WithCancel(ctx)
	defer stop()
	jobs := make(chan int)
	var wg sync.WaitGroup
	var firstErr error
	var errOnce sync.Once
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for siteIdx := range jobs {
				err := ctx.Err()
				if err == nil {
					err = trial(siteIdx, generate(p, siteIdx), newSiteMemos())
				}
				if err != nil {
					errOnce.Do(func() { firstErr = err })
					stop()
				}
			}
		}()
	}
	for siteIdx := 0; siteIdx < p.Sites; siteIdx++ {
		jobs <- siteIdx
	}
	close(jobs)
	wg.Wait()
	return firstErr
}

// foldPaired aggregates the loads[cond][0 = base, 1 = treatment][site] of
// revisits in index order: every warm load of a base world is paired with
// the treatment world's load at the same delay.
func foldPaired(cfg Config, base, treatment Scheme, loads [][][][]browser.LoadResult) *SweepResult {
	res := &SweepResult{Base: base, Treatment: treatment}
	var all []float64
	for ci, cond := range cfg.Grid {
		// byDelay[delay] accumulates per-site samples.
		byDelay := make([][]float64, len(cfg.Delays))
		var fcp, basePLT, treatPLT []float64
		for site, bs := range loads[ci][0] {
			for d, t := range loads[ci][1][site][1:] {
				b := bs[1+d]
				byDelay[d] = append(byDelay[d], stats.ReductionPercent(float64(b.PLT), float64(t.PLT)))
				fcp = append(fcp, stats.ReductionPercent(float64(b.FCP), float64(t.FCP)))
				basePLT = append(basePLT, float64(b.PLT))
				treatPLT = append(treatPLT, float64(t.PLT))
			}
		}
		cell := Cell{Cond: cond}
		var condAll []float64
		for d, delay := range cfg.Delays {
			cell.ByDelay = append(cell.ByDelay, DelayPoint{Delay: delay, MeanReductionPct: stats.Mean(byDelay[d])})
			condAll = append(condAll, byDelay[d]...)
		}
		cell.MeanReductionPct = stats.Mean(condAll)
		cell.P10ReductionPct = stats.Percentile(condAll, 10)
		cell.P90ReductionPct = stats.Percentile(condAll, 90)
		cell.FCPReductionPct = stats.Mean(fcp)
		cell.Samples = len(condAll)
		cell.MeanBasePLT = time.Duration(stats.Mean(basePLT))
		cell.MeanTreatPLT = time.Duration(stats.Mean(treatPLT))
		res.Cells = append(res.Cells, cell)
		all = append(all, condAll...)
	}
	res.OverallReduction = stats.Mean(all)
	return res
}

// HeadlineResult captures the abstract's claims.
type HeadlineResult struct {
	// Median5GReduction is the mean PLT reduction at the 60 Mbps / 40 ms
	// condition the paper calls the global 5G median.
	Median5GReduction float64
	// OverallReduction is the grid-wide mean (the paper's "average 30%").
	OverallReduction float64
	Sweep            *SweepResult
}

// RunHeadline computes the headline numbers from a Figure 3 sweep.
func RunHeadline(cfg Config) (*HeadlineResult, error) {
	sweep, err := RunFig3(cfg)
	if err != nil {
		return nil, err
	}
	res := &HeadlineResult{OverallReduction: sweep.OverallReduction, Sweep: sweep}
	want := Median5G()
	for _, c := range sweep.Cells {
		if c.Cond == want {
			res.Median5GReduction = c.MeanReductionPct
		}
	}
	return res, nil
}

// BaselineRow is one scheme's row in the §5 comparison.
type BaselineRow struct {
	Scheme            Scheme
	MeanColdPLT       time.Duration
	MeanWarmPLT       time.Duration
	MeanColdBytes     float64
	MeanWarmBytes     float64
	MeanWarmRequests  float64
	MeanWarmLocalHits float64
	MeanPushedUnused  float64
}

// RunBaselines compares all schemes at one condition and one revisit delay:
// the multifaceted comparison the paper defers to future work.
func RunBaselines(cfg Config, cond netsim.Conditions, delay time.Duration) ([]BaselineRow, error) {
	cfg.Grid, cfg.Delays = []netsim.Conditions{cond}, []time.Duration{delay}
	loads, err := revisits(context.Background(), cfg, AllSchemes)
	if err != nil {
		return nil, err
	}
	var rows []BaselineRow
	for si, scheme := range AllSchemes {
		var coldPLT, warmPLT, coldBytes, warmBytes, warmReqs, warmHits, unused []float64
		for _, l := range loads[0][si] {
			cold, warm := l[0], l[1]
			coldPLT = append(coldPLT, float64(cold.PLT))
			warmPLT = append(warmPLT, float64(warm.PLT))
			coldBytes = append(coldBytes, float64(cold.BytesDown))
			warmBytes = append(warmBytes, float64(warm.BytesDown))
			warmReqs = append(warmReqs, float64(warm.NetworkRequests))
			warmHits = append(warmHits, float64(warm.LocalHits))
			unused = append(unused, float64(warm.PushedUnused))
		}
		rows = append(rows, BaselineRow{
			Scheme:            scheme,
			MeanColdPLT:       time.Duration(stats.Mean(coldPLT)),
			MeanWarmPLT:       time.Duration(stats.Mean(warmPLT)),
			MeanColdBytes:     stats.Mean(coldBytes),
			MeanWarmBytes:     stats.Mean(warmBytes),
			MeanWarmRequests:  stats.Mean(warmReqs),
			MeanWarmLocalHits: stats.Mean(warmHits),
			MeanPushedUnused:  stats.Mean(unused),
		})
	}
	return rows, nil
}

// OverheadResult quantifies the X-Etag-Config ablation: what the proactive
// tokens cost on the navigation response.
type OverheadResult struct {
	MeanEntries      float64
	MeanMapBytes     float64
	MeanNavBytes     float64
	OverheadFraction float64
}

// RunHeaderOverhead measures the ETag-map header cost across the corpus.
func RunHeaderOverhead(cfg Config) (*OverheadResult, error) {
	type siteOverhead struct {
		mapBytes, navBytes float64
		entries            float64
		hasWorker          bool
	}
	cfg.Grid, cfg.Delays = []netsim.Conditions{Median5G()}, nil
	sites, err := run(context.Background(), cfg, []Scheme{SchemeCatalyst}, func(w *World, cond netsim.Conditions) (o siteOverhead, err error) {
		if _, err := w.revisit(cond, cfg.Delays, webgen.PagePath); err != nil {
			return o, err
		}
		built, m := catalyst.MapsBuilt(w.Front)
		if built == 0 {
			return o, fmt.Errorf("harness: no maps built for site %s", w.Site.Host)
		}
		o.mapBytes = float64(m) / float64(built)
		// The worker's map size ≈ entry count.
		if worker, ok := w.Browser.Workers().Lookup(w.Site.Host); ok {
			o.entries, o.hasWorker = float64(len(worker.ETagMap())), true
		}
		page, _ := w.Site.Content().Get(webgen.PagePath)
		o.navBytes = float64(len(page.Body))
		return o, nil
	})
	if err != nil {
		return nil, err
	}
	var entries, mapBytes, navBytes []float64
	for _, o := range sites[0][0] {
		mapBytes = append(mapBytes, o.mapBytes)
		if o.hasWorker {
			entries = append(entries, o.entries)
		}
		navBytes = append(navBytes, o.navBytes)
	}
	res := &OverheadResult{
		MeanEntries:  stats.Mean(entries),
		MeanMapBytes: stats.Mean(mapBytes),
		MeanNavBytes: stats.Mean(navBytes),
	}
	if res.MeanNavBytes > 0 {
		res.OverheadFraction = res.MeanMapBytes / (res.MeanMapBytes + res.MeanNavBytes)
	}
	return res, nil
}

// CrossPageRow reports one scheme's cross-page navigation cost.
type CrossPageRow struct {
	Scheme Scheme
	// MeanSecondPagePLT is the PLT of navigating to a second page right
	// after a cold homepage load.
	MeanSecondPagePLT time.Duration
	// MeanSecondPageRequests / LocalHits characterize how much of the
	// shared template the client could reuse.
	MeanSecondPageRequests  float64
	MeanSecondPageLocalHits float64
}

// RunCrossPage measures the paper's §1 intra-site reuse scenario: a user
// lands on the homepage (cold) and immediately navigates to a second page
// that shares the site template. The second page's ETag map lets a
// catalyst client reuse every shared asset with zero round trips, even the
// no-cache ones a conventional client must revalidate.
func RunCrossPage(cfg Config, cond netsim.Conditions) ([]CrossPageRow, error) {
	schemes := []Scheme{SchemeConventional, SchemeCatalyst, SchemeCatalystRecord}
	cfg.Grid, cfg.Delays = []netsim.Conditions{cond}, nil
	loads, err := run(context.Background(), cfg, schemes, func(w *World, cond netsim.Conditions) ([]browser.LoadResult, error) {
		return w.revisit(cond, cfg.Delays, webgen.PagePath, webgen.SecondaryPagePath)
	})
	if err != nil {
		return nil, err
	}
	var rows []CrossPageRow
	for si, scheme := range schemes {
		var plt, reqs, hits []float64
		for _, l := range loads[0][si] {
			second := l[1]
			plt = append(plt, float64(second.PLT))
			reqs = append(reqs, float64(second.NetworkRequests))
			hits = append(hits, float64(second.LocalHits))
		}
		rows = append(rows, CrossPageRow{
			Scheme:                  scheme,
			MeanSecondPagePLT:       time.Duration(stats.Mean(plt)),
			MeanSecondPageRequests:  stats.Mean(reqs),
			MeanSecondPageLocalHits: stats.Mean(hits),
		})
	}
	return rows, nil
}

// CoverageRow is one scheme's row in the coverage ablation.
type CoverageRow struct {
	Scheme            Scheme
	MeanWarmRequests  float64
	MeanWarmLocalHits float64
	// CoveredFraction is the share of subresources served locally on a
	// warm, unchanged revisit — the map's effective coverage.
	CoveredFraction float64
}

// RunCoverage quantifies the static-extraction coverage gap (JS-discovered
// resources) and how the recording extension closes it. The revisit
// happens after one minute, when essentially nothing has changed, so every
// network request on the warm load is a coverage miss.
func RunCoverage(cfg Config, cond netsim.Conditions) ([]CoverageRow, error) {
	schemes := []Scheme{SchemeCatalyst, SchemeCatalystRecord, SchemeCatalystFull}
	cfg.Grid, cfg.Delays = []netsim.Conditions{cond}, []time.Duration{time.Minute}
	loads, err := revisits(context.Background(), cfg, schemes)
	if err != nil {
		return nil, err
	}
	var rows []CoverageRow
	for si, scheme := range schemes {
		var reqs, hits, covered []float64
		for _, l := range loads[0][si] {
			warm := l[1]
			reqs = append(reqs, float64(warm.NetworkRequests))
			hits = append(hits, float64(warm.LocalHits))
			sub := float64(warm.Resources - 1)
			if sub > 0 {
				covered = append(covered, float64(warm.LocalHits)/sub)
			}
		}
		rows = append(rows, CoverageRow{
			Scheme:            scheme,
			MeanWarmRequests:  stats.Mean(reqs),
			MeanWarmLocalHits: stats.Mean(hits),
			CoveredFraction:   stats.Mean(covered),
		})
	}
	return rows, nil
}
