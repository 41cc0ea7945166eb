package harness

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

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
// every grid condition. For each (site, condition) pair both schemes load
// the page cold at the virtual epoch and then reload at each delay; the
// virtual clocks advance identically, so both schemes see identical content
// trajectories and the comparison is paired. Each site is generated once and
// every world of it runs on a view of that one site (forEachSite). Results
// do not depend on Parallelism: every trial fills its own (condition, site)
// slot, and the slots are folded in index order, as RunSchemeMatrix does.
func RunPairedSweep(cfg Config, base, treatment Scheme) (*SweepResult, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	p := cfg.Corpus.Sites
	if p == 0 {
		p = 100
	}

	trials := make([][][]sampleOut, len(cfg.Grid))
	for condIdx := range trials {
		trials[condIdx] = make([][]sampleOut, p)
	}
	err := forEachSite(context.Background(), cfg.Corpus, p, cfg.Parallelism, func(siteIdx int, site *webgen.Site, memos siteMemos) error {
		for condIdx, cond := range cfg.Grid {
			out, err := runPairedTrial(cfg, cond, newWorld(site, memos, base, cfg.Transport), newWorld(site, memos, treatment, cfg.Transport))
			if err != nil {
				return err
			}
			trials[condIdx][siteIdx] = out
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return foldPaired(cfg, base, treatment, trials), nil
}

// forEachSite calls trial once for every site index below sites, on up to
// workers goroutines (≤0 means GOMAXPROCS), handing it the site generated
// once and the memos made for it. trial builds every world of that site on
// views of it, with those memos, and both are dropped when trial returns,
// so at most workers sites are resident. A trial's worlds run one after
// another on its goroutine, which is what lets them share the memos.
// Trials fill index-ordered slots, so what they produce does not depend on
// workers. Once ctx is done or a trial has failed no further site starts;
// the first error is returned.
func forEachSite(ctx context.Context, p webgen.Params, sites, workers int, trial func(siteIdx int, site *webgen.Site, memos siteMemos) error) error {
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
	for siteIdx := 0; siteIdx < sites; siteIdx++ {
		jobs <- siteIdx
	}
	close(jobs)
	wg.Wait()
	return firstErr
}

// foldPaired aggregates the per-(condition, site) trials in index order.
func foldPaired(cfg Config, base, treatment Scheme, trials [][][]sampleOut) *SweepResult {
	// reductions[cond][delay] accumulates per-site samples.
	reductions := make([][][]float64, len(cfg.Grid))
	fcpReductions := make([][]float64, len(cfg.Grid))
	basePLTs := make([][]float64, len(cfg.Grid))
	treatPLTs := make([][]float64, len(cfg.Grid))
	for condIdx := range trials {
		reductions[condIdx] = make([][]float64, len(cfg.Delays))
		for _, out := range trials[condIdx] {
			for _, s := range out {
				reductions[condIdx][s.delayIdx] = append(reductions[condIdx][s.delayIdx], s.reduction)
				fcpReductions[condIdx] = append(fcpReductions[condIdx], s.fcpReduction)
				basePLTs[condIdx] = append(basePLTs[condIdx], float64(s.basePLT))
				treatPLTs[condIdx] = append(treatPLTs[condIdx], float64(s.treatPLT))
			}
		}
	}

	res := &SweepResult{Base: base, Treatment: treatment}
	var all []float64
	for condIdx, cond := range cfg.Grid {
		cell := Cell{Cond: cond}
		var condAll []float64
		for delayIdx, d := range cfg.Delays {
			xs := reductions[condIdx][delayIdx]
			cell.ByDelay = append(cell.ByDelay, DelayPoint{Delay: d, MeanReductionPct: stats.Mean(xs)})
			condAll = append(condAll, xs...)
		}
		cell.MeanReductionPct = stats.Mean(condAll)
		cell.P10ReductionPct = stats.Percentile(condAll, 10)
		cell.P90ReductionPct = stats.Percentile(condAll, 90)
		cell.FCPReductionPct = stats.Mean(fcpReductions[condIdx])
		cell.Samples = len(condAll)
		cell.MeanBasePLT = time.Duration(stats.Mean(basePLTs[condIdx]))
		cell.MeanTreatPLT = time.Duration(stats.Mean(treatPLTs[condIdx]))
		res.Cells = append(res.Cells, cell)
		all = append(all, condAll...)
	}
	res.OverallReduction = stats.Mean(all)
	return res
}

// runPairedTrial runs one (condition, site) pair through the base and
// treatment worlds of that site.
func runPairedTrial(cfg Config, cond netsim.Conditions, wBase, wTreat *World) ([]sampleOut, error) {
	// Cold loads at the epoch (not measured for the sweep; they warm the
	// client state, as in the paper's methodology).
	if _, err := wBase.Load(cond); err != nil {
		return nil, err
	}
	if _, err := wTreat.Load(cond); err != nil {
		return nil, err
	}

	var out []sampleOut
	prev := time.Duration(0)
	for delayIdx, d := range cfg.Delays {
		step := d - prev
		prev = d
		wBase.Advance(step)
		wTreat.Advance(step)
		rBase, err := wBase.Load(cond)
		if err != nil {
			return nil, err
		}
		rTreat, err := wTreat.Load(cond)
		if err != nil {
			return nil, err
		}
		out = append(out, sampleOut{
			delayIdx:     delayIdx,
			reduction:    stats.ReductionPercent(float64(rBase.PLT), float64(rTreat.PLT)),
			fcpReduction: stats.ReductionPercent(float64(rBase.FCP), float64(rTreat.FCP)),
			basePLT:      rBase.PLT,
			treatPLT:     rTreat.PLT,
		})
	}
	return out, nil
}

type sampleOut struct {
	delayIdx          int
	reduction         float64
	fcpReduction      float64
	basePLT, treatPLT time.Duration
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

// eachWorld runs visit on one world of every (site, scheme) pair, site by
// site (forEachSite), and returns what it returned as [scheme][site]: a
// caller folding each scheme's sites in index order sums them as the
// sequential loops over schemes and then sites did.
func eachWorld[T any](cfg Config, schemes []Scheme, visit func(w *World) (T, error)) ([][]T, error) {
	out := make([][]T, len(schemes))
	for si := range out {
		out[si] = make([]T, cfg.Corpus.Sites)
	}
	err := forEachSite(context.Background(), cfg.Corpus, cfg.Corpus.Sites, cfg.Parallelism, func(siteIdx int, site *webgen.Site, memos siteMemos) error {
		for si, scheme := range schemes {
			v, err := visit(newWorld(site, memos, scheme, cfg.Transport))
			if err != nil {
				return err
			}
			out[si][siteIdx] = v
		}
		return nil
	})
	return out, err
}

// RunBaselines compares all schemes at one condition and one revisit delay:
// the multifaceted comparison the paper defers to future work.
func RunBaselines(cfg Config, cond netsim.Conditions, delay time.Duration) ([]BaselineRow, error) {
	if cfg.Corpus.Sites == 0 {
		cfg.Corpus.Sites = 100
	}
	loads, err := eachWorld(cfg, AllSchemes, func(w *World) ([2]browser.LoadResult, error) {
		cold, err := w.Load(cond)
		if err != nil {
			return [2]browser.LoadResult{}, err
		}
		w.Advance(delay)
		warm, err := w.Load(cond)
		return [2]browser.LoadResult{cold, warm}, err
	})
	if err != nil {
		return nil, err
	}
	var rows []BaselineRow
	for si, scheme := range AllSchemes {
		var coldPLT, warmPLT, coldBytes, warmBytes, warmReqs, warmHits, unused []float64
		for _, l := range loads[si] {
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
	if cfg.Corpus.Sites == 0 {
		cfg.Corpus.Sites = 100
	}
	type siteOverhead struct {
		mapBytes, navBytes float64
		entries            float64
		hasWorker          bool
	}
	sites, err := eachWorld(cfg, []Scheme{SchemeCatalyst}, func(w *World) (o siteOverhead, err error) {
		if _, err := w.Load(Median5G()); err != nil {
			return o, err
		}
		m := w.Server.Metrics.MapBytes.Load()
		built := w.Server.Metrics.MapsBuilt.Load()
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
	for _, o := range sites[0] {
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
	if cfg.Corpus.Sites == 0 {
		cfg.Corpus.Sites = 100
	}
	schemes := []Scheme{SchemeConventional, SchemeCatalyst, SchemeCatalystRecord}
	seconds, err := eachWorld(cfg, schemes, func(w *World) (browser.LoadResult, error) {
		if _, err := w.Load(cond); err != nil {
			return browser.LoadResult{}, err
		}
		second, err := w.LoadPage(cond, webgen.SecondaryPagePath)
		return second, err
	})
	if err != nil {
		return nil, err
	}
	var rows []CrossPageRow
	for si, scheme := range schemes {
		var plt, reqs, hits []float64
		for _, second := range seconds[si] {
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
	if cfg.Corpus.Sites == 0 {
		cfg.Corpus.Sites = 100
	}
	schemes := []Scheme{SchemeCatalyst, SchemeCatalystRecord, SchemeCatalystFull}
	warms, err := eachWorld(cfg, schemes, func(w *World) (browser.LoadResult, error) {
		if _, err := w.Load(cond); err != nil {
			return browser.LoadResult{}, err
		}
		w.Advance(time.Minute)
		warm, err := w.Load(cond)
		return warm, err
	})
	if err != nil {
		return nil, err
	}
	var rows []CoverageRow
	for si, scheme := range schemes {
		var reqs, hits, covered []float64
		for _, warm := range warms[si] {
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
