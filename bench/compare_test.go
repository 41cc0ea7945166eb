package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

func TestJudge(t *testing.T) {
	cpu := metricDef{Name: "cpu_us_per_op", Unit: "us", Better: "lower", Bound: 0.10}
	rps := metricDef{Name: "throughput_rps", Unit: "1/s", Better: "higher", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(v []float64, by float64) []float64 {
		out := make([]float64, len(v))
		for i, x := range v {
			out[i] = x * by
		}
		return out
	}
	for _, tc := range []struct {
		name           string
		def            metricDef
		parent, change []float64
		want           string
	}{
		{"same code", cpu, steady, steady, verdictUnchanged},
		{"lower-is-better, 20% more", cpu, steady, shift(steady, 1.2), verdictRegressed},
		{"lower-is-better, 20% less", cpu, steady, shift(steady, 0.8), verdictGain},
		{"higher-is-better, 20% less", rps, steady, shift(steady, 0.8), verdictRegressed},
		{"higher-is-better, 20% more", rps, steady, shift(steady, 1.2), verdictGain},
		// A real but small saving on every pair: inside the parent's own
		// spread, so no gain is claimed, and no regression either.
		{"within spread", cpu, steady, shift(steady, 0.995), verdictUnchanged},
		// Too few pairs can show a regression but never a gain.
		{"five pairs better", cpu, steady[:5], shift(steady[:5], 0.8), verdictUnchanged},
		// Wins on 8 of 10 pairs only.
		{"not nine tenths", cpu, steady,
			[]float64{80, 80, 80, 80, 80, 80, 80, 80, 200, 200}, verdictUnchanged},
		// The parent's runs disagree by more than the bound.
		{"noisy parent", cpu, []float64{100, 140, 80, 130, 90, 150, 70, 120, 100, 110},
			[]float64{104, 139, 85, 128, 93, 152, 75, 118, 101, 113}, verdictUnresolved},
	} {
		got := judge(tc.def, tc.parent, tc.change)
		if got.Verdict != tc.want {
			t.Errorf("%s: verdict %s, want %s (%+v)", tc.name, got.Verdict, tc.want, got)
		}
	}
}

func TestCompareFilesRoundTrip(t *testing.T) {
	dir := t.TempDir()
	parent, change := filepath.Join(dir, "a.json"), filepath.Join(dir, "b.json")
	for i := 0; i < 10; i++ {
		for path, cpu := range map[string]float64{parent: 50 + float64(i%3), change: 70 + float64(i%3)} {
			rec := newRunRecord(1, 10)
			rec.Results = []*result{{
				Workload: "page_warm", Correct: true,
				Metrics: map[string]float64{"setup_s": 0.3, "throughput_rps": 4000, "cpu_us_per_op": cpu, "latency_p50_ms": 0.3, "rss_mib": 27},
			}}
			if err := appendRun(path, rec); err != nil {
				t.Fatal(err)
			}
		}
	}
	runs, err := readRuns(parent)
	if err != nil || len(runs) != 10 || runs[0].NProc == 0 || runs[0].GoVersion == "" || runs[0].Phases.MeasuredS != 10 {
		t.Fatalf("run record did not round-trip: %d runs, %v", len(runs), err)
	}
	var out bytes.Buffer
	if code := compareFiles(parent, change, &out); code != 1 {
		t.Errorf("exit code %d for a 40%% CPU regression, want 1\n%s", code, out.String())
	}
	for _, want := range []string{"page_warm", "cpu_us_per_op", verdictRegressed, "rss_mib"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("table lacks %q:\n%s", want, out.String())
		}
	}
	out.Reset()
	if code := compareFiles(parent, parent, &out); code != 0 {
		t.Errorf("a file compared with itself exits %d\n%s", code, out.String())
	}
	if code := compareFiles(parent, filepath.Join(dir, "missing.json"), &out); code != 2 {
		t.Errorf("a missing file exits %d, want 2", code)
	}
}
