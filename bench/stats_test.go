package main

import (
	"math"
	"testing"
	"time"
)

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{7}, 7},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(tc.in); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
	in := []float64{3, 1, 2}
	median(in)
	if in[0] != 3 {
		t.Error("median sorted its input in place")
	}
}

// The expected values are what Python's statistics.quantiles(v, n=4)
// prints; the acceptance procedure computes spreads with it.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		in     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 1, 7, 3}, 1.5, 9.25},
		{[]float64{5, 9}, 4, 10}, // two points extrapolate: [4.0, 7.0, 10.0]
		{[]float64{2, 4, 4, 5, 9, 11, 12}, 4, 11},
	} {
		q1, q3 := quartiles(tc.in)
		if math.Abs(q1-tc.q1) > 1e-9 || math.Abs(q3-tc.q3) > 1e-9 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", tc.in, q1, q3, tc.q1, tc.q3)
		}
	}
}

func TestHighestSupportedPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{0, 50}, {19, 50}, {20, 50}, // ten beyond the median needs twenty
		{99, 50}, {100, 90}, // ten beyond p90 needs a hundred
		{999, 90}, {1000, 99},
		{9999, 99}, {10000, 99.9},
		{99999, 99.9}, {100000, 99.99},
	} {
		if got := highestSupportedPercentile(tc.n); got != tc.want {
			t.Errorf("highestSupportedPercentile(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
}

func TestQuantileNearestRank(t *testing.T) {
	v := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for q, want := range map[float64]float64{0.5: 5, 0.9: 9, 0.99: 10, 0: 1, 1: 10} {
		if got := quantile(v, q); got != want {
			t.Errorf("quantile(%v) = %v, want %v", q, got, want)
		}
	}
}

func TestWindowize(t *testing.T) {
	ms := time.Millisecond
	var samples []sample
	// Window 0: three operations of 1, 2, 3 ms. Window 1: one of 10 ms.
	// Window 2: five of 4 ms. The partial fourth window is dropped.
	for i, lat := range []time.Duration{1 * ms, 2 * ms, 3 * ms} {
		samples = append(samples, sample{at: time.Duration(i+1) * 100 * ms, lat: lat})
	}
	samples = append(samples, sample{at: 1500 * ms, lat: 10 * ms})
	for i := 0; i < 5; i++ {
		samples = append(samples, sample{at: 2000*ms + time.Duration(i)*ms, lat: 4 * ms})
	}
	samples = append(samples, sample{at: 3200 * ms, lat: 99 * ms})

	w := windowize(samples, 3500*ms, time.Second)
	if w.Windows != 3 || w.Samples != 9 {
		t.Fatalf("windows %d samples %d, want 3 and 9", w.Windows, w.Samples)
	}
	if w.OpsMedian != 3 {
		t.Errorf("median ops per window = %v, want 3 (windows hold 3, 1, 5)", w.OpsMedian)
	}
	if w.LatP50MsMd != 4 {
		t.Errorf("median of window medians = %v ms, want 4 (medians 2, 10, 4)", w.LatP50MsMd)
	}

	// A window in which nothing completed counts as zero operations and
	// contributes no latency.
	w = windowize([]sample{{at: 100 * ms, lat: ms}, {at: 2100 * ms, lat: 3 * ms}}, 3*time.Second, time.Second)
	if w.OpsMedian != 1 || w.LatP50MsMd != 2 {
		t.Errorf("with an empty window: ops %v latency %v, want 1 and 2", w.OpsMedian, w.LatP50MsMd)
	}
	if w := windowize(nil, 500*ms, time.Second); w.Windows != 0 {
		t.Errorf("a phase shorter than a window has %d windows", w.Windows)
	}
}
