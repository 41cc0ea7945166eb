package harness

import (
	"context"
	"fmt"
	"time"

	"cachecatalyst/internal/netsim"
	"cachecatalyst/internal/stats"
	"cachecatalyst/internal/webgen"
)

// MatrixConfig parameterizes a scheme-matrix run: every scheme in Schemes
// crosses every grid condition, each measured over the corpus and the
// revisit delays.
type MatrixConfig struct {
	// Corpus selects the synthetic site corpus. A positive BrokenFrac
	// gives the negative-caching scheme something to cache: references
	// deployed before their assets.
	Corpus webgen.Params
	// Transport is the browser connection model.
	Transport netsim.TransportOptions
	// Grid is the network-condition axis.
	Grid []netsim.Conditions
	// Delays are the warm revisit points, cumulative from the cold load.
	Delays []time.Duration
	// Schemes are the columns; defaults to MatrixSchemes when empty.
	Schemes []Scheme
	// Parallelism bounds concurrent measurement worlds; ≤0 means
	// GOMAXPROCS.
	Parallelism int
}

// QuickMatrixConfig is a small matrix that still exercises every scheme
// across four corner conditions — the configuration behind the committed
// EXPERIMENTS.md table and the golden test.
func QuickMatrixConfig() MatrixConfig {
	return MatrixConfig{
		Corpus: webgen.Params{Sites: 3, Seed: 7, Scale: 0.35, BrokenFrac: 0.15},
		Grid: []netsim.Conditions{
			{RTT: 10 * time.Millisecond, DownlinkBps: 8e6},
			{RTT: 80 * time.Millisecond, DownlinkBps: 8e6},
			{RTT: 10 * time.Millisecond, DownlinkBps: 60e6},
			{RTT: 80 * time.Millisecond, DownlinkBps: 60e6},
		},
		Delays: []time.Duration{time.Hour, 24 * time.Hour},
	}
}

// MatrixCell aggregates one (condition, scheme) combination over
// sites × delays.
type MatrixCell struct {
	Scheme Scheme
	Cond   netsim.Conditions
	// MeanColdPLT averages the cold (first-visit) loads across sites.
	MeanColdPLT time.Duration
	// MeanWarmPLT / MeanWarmFCP average the revisit loads.
	MeanWarmPLT time.Duration
	MeanWarmFCP time.Duration
	// MeanWarmBytes / MeanWarmRequests are per-revisit wire cost.
	MeanWarmBytes    float64
	MeanWarmRequests float64
	// MeanErrors counts failed resources per revisit (broken references).
	MeanErrors float64
	// VsConventionalPct is the warm-PLT reduction relative to the
	// conventional scheme in the same condition (positive = faster);
	// zero when the matrix does not include the conventional column.
	VsConventionalPct float64
	Samples           int
}

// MatrixResult is the full scheme × condition grid.
type MatrixResult struct {
	Schemes []Scheme
	// Cells[condIdx][schemeIdx], both in config order.
	Cells [][]MatrixCell
}

// Cell returns the cell for a scheme and condition, if present.
func (r *MatrixResult) Cell(scheme Scheme, cond netsim.Conditions) (MatrixCell, bool) {
	for _, row := range r.Cells {
		for _, c := range row {
			if c.Scheme == scheme && c.Cond == cond {
				return c, true
			}
		}
	}
	return MatrixCell{}, false
}

func (c MatrixConfig) validate() error {
	if len(c.Grid) == 0 {
		return fmt.Errorf("harness: empty network grid")
	}
	if len(c.Delays) == 0 {
		return fmt.Errorf("harness: no revisit delays")
	}
	for i := 1; i < len(c.Delays); i++ {
		if c.Delays[i] <= c.Delays[i-1] {
			return fmt.Errorf("harness: delays must be strictly increasing")
		}
	}
	if len(c.Schemes) == 0 {
		return fmt.Errorf("harness: no schemes")
	}
	return nil
}

// matrixTrial is one (condition, scheme, site) measurement: the per-delay
// warm samples plus the cold load.
type matrixTrial struct {
	coldPLT  time.Duration
	warmPLT  []float64
	warmFCP  []float64
	warmByte []float64
	warmReq  []float64
	warmErr  []float64
}

// RunSchemeMatrix runs the matrix without cancellation.
func RunSchemeMatrix(cfg MatrixConfig) (*MatrixResult, error) {
	return RunSchemeMatrixContext(context.Background(), cfg)
}

// RunSchemeMatrixContext measures every scheme across the grid. Each
// (condition, scheme, site) trial runs its own world — cold load at the
// epoch, then a warm load at each revisit delay — on a view of the site,
// which is generated once for all of its trials (forEachSite), so schemes
// see identical content trajectories and results are independent of
// scheduling. Cancelling ctx stops the run promptly and leaves no
// goroutines behind.
func RunSchemeMatrixContext(ctx context.Context, cfg MatrixConfig) (*MatrixResult, error) {
	if len(cfg.Schemes) == 0 {
		cfg.Schemes = MatrixSchemes
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	sites := cfg.Corpus.Sites
	if sites == 0 {
		sites = 100
		cfg.Corpus.Sites = sites
	}

	// Results are preallocated and indexed, never appended: workers write
	// disjoint slots, and aggregation order is fixed regardless of which
	// worker finishes first.
	trials := newMatrixTrials(cfg, sites)
	err := forEachSite(ctx, cfg.Corpus, sites, cfg.Parallelism, func(siteIdx int, site *webgen.Site, memos siteMemos) error {
		for ci, cond := range cfg.Grid {
			for si, scheme := range cfg.Schemes {
				if err := ctx.Err(); err != nil {
					return err
				}
				out, err := runMatrixTrial(cfg, cond, newWorld(site, memos, scheme, cfg.Transport))
				if err != nil {
					return err
				}
				trials[ci][si][siteIdx] = out
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return foldMatrix(cfg, trials), nil
}

// newMatrixTrials allocates the trials[condIdx][schemeIdx][siteIdx] slots.
func newMatrixTrials(cfg MatrixConfig, sites int) [][][]*matrixTrial {
	trials := make([][][]*matrixTrial, len(cfg.Grid))
	for ci := range trials {
		trials[ci] = make([][]*matrixTrial, len(cfg.Schemes))
		for si := range trials[ci] {
			trials[ci][si] = make([]*matrixTrial, sites)
		}
	}
	return trials
}

// foldMatrix aggregates the trials in index order.
func foldMatrix(cfg MatrixConfig, trials [][][]*matrixTrial) *MatrixResult {
	res := &MatrixResult{Schemes: cfg.Schemes}
	convIdx := -1
	for si, s := range cfg.Schemes {
		if s == SchemeConventional {
			convIdx = si
		}
	}
	for ci, cond := range cfg.Grid {
		row := make([]MatrixCell, len(cfg.Schemes))
		for si, scheme := range cfg.Schemes {
			var cold, plt, fcp, bytes, reqs, errs []float64
			for _, tr := range trials[ci][si] {
				cold = append(cold, float64(tr.coldPLT))
				plt = append(plt, tr.warmPLT...)
				fcp = append(fcp, tr.warmFCP...)
				bytes = append(bytes, tr.warmByte...)
				reqs = append(reqs, tr.warmReq...)
				errs = append(errs, tr.warmErr...)
			}
			row[si] = MatrixCell{
				Scheme:           scheme,
				Cond:             cond,
				MeanColdPLT:      time.Duration(stats.Mean(cold)),
				MeanWarmPLT:      time.Duration(stats.Mean(plt)),
				MeanWarmFCP:      time.Duration(stats.Mean(fcp)),
				MeanWarmBytes:    stats.Mean(bytes),
				MeanWarmRequests: stats.Mean(reqs),
				MeanErrors:       stats.Mean(errs),
				Samples:          len(plt),
			}
		}
		if convIdx >= 0 {
			base := float64(row[convIdx].MeanWarmPLT)
			for si := range row {
				row[si].VsConventionalPct = stats.ReductionPercent(base, float64(row[si].MeanWarmPLT))
			}
		}
		res.Cells = append(res.Cells, row)
	}
	return res
}

// runMatrixTrial measures one (condition, scheme, site) world: a cold load
// at the virtual epoch, then a warm load at each cumulative revisit delay.
func runMatrixTrial(cfg MatrixConfig, cond netsim.Conditions, w *World) (*matrixTrial, error) {
	coldRes, err := w.Load(cond)
	if err != nil {
		return nil, err
	}
	tr := &matrixTrial{coldPLT: coldRes.PLT}
	prev := time.Duration(0)
	for _, d := range cfg.Delays {
		w.Advance(d - prev)
		prev = d
		warm, err := w.Load(cond)
		if err != nil {
			return nil, err
		}
		tr.warmPLT = append(tr.warmPLT, float64(warm.PLT))
		tr.warmFCP = append(tr.warmFCP, float64(warm.FCP))
		tr.warmByte = append(tr.warmByte, float64(warm.BytesDown))
		tr.warmReq = append(tr.warmReq, float64(warm.NetworkRequests))
		tr.warmErr = append(tr.warmErr, float64(warm.Errors))
	}
	return tr, nil
}
