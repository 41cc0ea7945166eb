package harness

import (
	"context"
	"time"

	"cachecatalyst/internal/browser"
	"cachecatalyst/internal/netsim"
	"cachecatalyst/internal/stats"
	"cachecatalyst/internal/webgen"
)

// QuickMatrixConfig is a small matrix that still exercises every scheme
// across four corner conditions — the configuration behind the committed
// EXPERIMENTS.md table and the golden test.
func QuickMatrixConfig() Config {
	return Config{
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

// RunSchemeMatrixContext measures every scheme across the grid: the cold
// load and the warm revisits of every world (run, revisit), folded per
// (condition, scheme) cell over sites × delays. Cancelling ctx stops the run
// promptly and leaves no goroutines behind.
func RunSchemeMatrixContext(ctx context.Context, cfg Config, schemes []Scheme) (*MatrixResult, error) {
	loads, err := revisits(ctx, cfg, schemes)
	if err != nil {
		return nil, err
	}
	return foldMatrix(cfg, schemes, loads), nil
}

// foldMatrix aggregates the loads[cond][scheme][site] of revisits in index
// order.
func foldMatrix(cfg Config, schemes []Scheme, loads [][][][]browser.LoadResult) *MatrixResult {
	res := &MatrixResult{Schemes: schemes}
	convIdx := -1
	for si, s := range schemes {
		if s == SchemeConventional {
			convIdx = si
		}
	}
	for ci, cond := range cfg.Grid {
		row := make([]MatrixCell, len(schemes))
		for si, scheme := range schemes {
			var cold, plt, fcp, bytes, reqs, errs []float64
			for _, site := range loads[ci][si] {
				cold = append(cold, float64(site[0].PLT))
				for _, warm := range site[1:] {
					plt = append(plt, float64(warm.PLT))
					fcp = append(fcp, float64(warm.FCP))
					bytes = append(bytes, float64(warm.BytesDown))
					reqs = append(reqs, float64(warm.NetworkRequests))
					errs = append(errs, float64(warm.Errors))
				}
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
