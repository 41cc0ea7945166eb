package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func approx(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMean(t *testing.T) {
	if !approx(Mean([]float64{1, 2, 3, 4}), 2.5) {
		t.Fatal("mean wrong")
	}
	if !math.IsNaN(Mean(nil)) {
		t.Fatal("empty mean should be NaN")
	}
}

func TestMedian(t *testing.T) {
	if !approx(Median([]float64{3, 1, 2}), 2) {
		t.Fatal("odd median wrong")
	}
	if !approx(Median([]float64{4, 1, 3, 2}), 2.5) {
		t.Fatal("even median wrong")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{10, 20, 30, 40, 50}
	cases := map[float64]float64{0: 10, 25: 20, 50: 30, 75: 40, 100: 50, 90: 46}
	for p, want := range cases {
		if got := Percentile(xs, p); !approx(got, want) {
			t.Errorf("P%.0f = %v, want %v", p, got, want)
		}
	}
	if got := Percentile(xs, -5); !approx(got, 10) {
		t.Errorf("clamp low: %v", got)
	}
	if got := Percentile(xs, 120); !approx(got, 50) {
		t.Errorf("clamp high: %v", got)
	}
	if !math.IsNaN(Percentile(nil, 50)) {
		t.Error("empty percentile should be NaN")
	}
}

func TestPercentileDoesNotMutateInput(t *testing.T) {
	xs := []float64{3, 1, 2}
	Percentile(xs, 50)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatal("input mutated")
	}
}

func TestStdDev(t *testing.T) {
	if !approx(StdDev([]float64{2, 4, 4, 4, 5, 5, 7, 9}), math.Sqrt(32.0/7)) {
		t.Fatal("stddev wrong")
	}
	if !math.IsNaN(StdDev([]float64{1})) {
		t.Fatal("single-sample stddev should be NaN")
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 7, 2}
	if Min(xs) != -1 || Max(xs) != 7 {
		t.Fatal("min/max wrong")
	}
	if !math.IsNaN(Min(nil)) || !math.IsNaN(Max(nil)) {
		t.Fatal("empty min/max should be NaN")
	}
}

func TestReductionPercent(t *testing.T) {
	if !approx(ReductionPercent(200, 140), 30) {
		t.Fatal("30% reduction wrong")
	}
	if !approx(ReductionPercent(100, 120), -20) {
		t.Fatal("regression sign wrong")
	}
	if !math.IsNaN(ReductionPercent(0, 5)) {
		t.Fatal("zero baseline should be NaN")
	}
}

// Property: min ≤ p10 ≤ median ≤ p90 ≤ max for any sample.
func TestOrderStatisticsOrderedQuick(t *testing.T) {
	f := func(raw []int16) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = float64(v)
		}
		lo, p10, med, p90, hi := Min(xs), Percentile(xs, 10), Median(xs), Percentile(xs, 90), Max(xs)
		return lo <= p10 && p10 <= med && med <= p90 && p90 <= hi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: mean lies within [min, max].
func TestMeanBoundedQuick(t *testing.T) {
	f := func(raw []int16) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = float64(v)
		}
		m := Mean(xs)
		return m >= Min(xs)-1e-9 && m <= Max(xs)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
