package main

import (
	"math"
	"sort"
	"time"
)

// sample is one completed operation: when it finished, measured from the
// start of the phase, and how long it took.
type sample struct {
	at  time.Duration
	lat time.Duration
}

// median returns the middle value (mean of the two middle values for an
// even count). Zero for an empty input; the input is not modified.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile returns the q-quantile (0..1) of an ascending-sorted slice by
// the nearest-rank rule.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(v, n=4) does (exclusive method), which is what the
// acceptance procedure computes spreads with.
func quartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(k int) float64 {
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		// Computed after clamping, so the ends extrapolate as Python does.
		delta := k*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// tailPercentiles are the candidates of the tail rule, ascending, in
// hundredths of a percent so the rule is exact integer arithmetic.
var tailPercentiles = []int{5000, 9000, 9900, 9990, 9999}

// highestSupportedPercentile is the tail rule of the choosing-metrics
// guide: the highest percentile that still has at least ten samples beyond
// it. Fewer than twenty samples support only the median.
func highestSupportedPercentile(n int) float64 {
	best := tailPercentiles[0]
	for _, p := range tailPercentiles {
		if n*(10000-p)/10000 >= 10 {
			best = p
		}
	}
	return float64(best) / 100
}

// windowStats summarises a phase over whole 1-second windows.
type windowStats struct {
	Windows    int       // whole windows the phase covered
	OpsMedian  float64   // median completed operations per window
	LatP50MsMd float64   // median of the windows' median latencies, ms
	Samples    int       // operations inside whole windows
	Ops        []float64 // completed operations, window by window
}

// windowize buckets samples into consecutive windows of the given width
// over [0, phase) and reports the median window. A trailing partial window
// is dropped so a phase that ends mid-window does not report a short one;
// a window in which nothing completed counts as zero operations.
func windowize(samples []sample, phase, width time.Duration) windowStats {
	n := int(phase / width)
	if n <= 0 {
		return windowStats{}
	}
	lats := make([][]float64, n)
	total := 0
	for _, s := range samples {
		w := int(s.at / width)
		if w < 0 || w >= n {
			continue
		}
		lats[w] = append(lats[w], float64(s.lat)/float64(time.Millisecond))
		total++
	}
	ops := make([]float64, n)
	var p50s []float64
	for w := range lats {
		ops[w] = float64(len(lats[w])) * float64(time.Second) / float64(width)
		if len(lats[w]) > 0 {
			p50s = append(p50s, median(lats[w]))
		}
	}
	return windowStats{Windows: n, OpsMedian: median(ops), LatP50MsMd: median(p50s), Samples: total, Ops: ops}
}
