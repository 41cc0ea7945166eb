package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeStream renders benchmark output lines as a `go test -json` stream.
func writeStream(t *testing.T, name string, lines []string) string {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, l := range lines {
		if err := enc.Encode(event{Action: "output", Output: l + "\n"}); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestParseFileFusedAndSplitLines(t *testing.T) {
	path := writeStream(t, "a.json", []string{
		"goos: linux",
		"BenchmarkFast-8   \t 1000 \t 100 ns/op \t 16 B/op \t 2 allocs/op",
		// test2json split form: bare name, then samples.
		"BenchmarkSlow",
		"  500 \t 200 ns/op",
		"  500 \t 300 ns/op",
		"PASS",
	})
	got, err := parseFile(path)
	if err != nil {
		t.Fatal(err)
	}
	fast := got["BenchmarkFast"]
	if len(fast["ns/op"]) != 1 || fast["ns/op"][0] != 100 {
		t.Errorf("BenchmarkFast ns/op samples = %v, want [100]", fast["ns/op"])
	}
	if len(fast["B/op"]) != 1 || fast["B/op"][0] != 16 {
		t.Errorf("BenchmarkFast B/op samples = %v, want [16]", fast["B/op"])
	}
	if len(fast["allocs/op"]) != 1 || fast["allocs/op"][0] != 2 {
		t.Errorf("BenchmarkFast allocs/op samples = %v, want [2]", fast["allocs/op"])
	}
	slow := got["BenchmarkSlow"]
	if len(slow["ns/op"]) != 2 {
		t.Errorf("BenchmarkSlow ns/op samples = %v, want two", slow["ns/op"])
	}
	if len(slow["B/op"]) != 0 {
		t.Errorf("BenchmarkSlow without -benchmem has B/op samples %v", slow["B/op"])
	}
}

// TestParseFileKeepsCPUSweepApart: a benchmark run at two GOMAXPROCS values
// in one stream (split and fused lines alike) is two rows, not one pooled
// median; one run only at a single value keeps its bare name.
func TestParseFileKeepsCPUSweepApart(t *testing.T) {
	path := writeStream(t, "sweep.json", []string{
		"BenchmarkGet-2 \t 1000 \t 160 ns/op",
		"BenchmarkGet",
		"  1000 \t 90 ns/op",
		"BenchmarkGet-2",
		"  1000 \t 170 ns/op",
		"BenchmarkOther-2 \t 1000 \t 5 ns/op",
	})
	got, err := parseFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if one, two := got["BenchmarkGet/cpu=1"]["ns/op"], got["BenchmarkGet/cpu=2"]["ns/op"]; len(one) != 1 || one[0] != 90 || len(two) != 2 {
		t.Errorf("cpu=1 samples %v, cpu=2 samples %v; want [90] and two", one, two)
	}
	if _, pooled := got["BenchmarkGet"]; pooled || len(got["BenchmarkOther"]["ns/op"]) != 1 {
		t.Errorf("names = %v; want the sweep split and BenchmarkOther bare", got)
	}
}

func TestParseFileNoResults(t *testing.T) {
	path := writeStream(t, "empty.json", []string{"goos: linux", "PASS"})
	if _, err := parseFile(path); err == nil {
		t.Fatal("want error for stream without benchmark results")
	}
}

func TestParseBenchLine(t *testing.T) {
	cases := []struct {
		line, pending string
		wantName      string
		wantVals      map[string]float64
		wantOK        bool
	}{
		{"BenchmarkX-16 \t 10 \t 42 ns/op", "", "BenchmarkX",
			map[string]float64{"ns/op": 42}, true},
		{"BenchmarkX-16 \t 10 \t 42 ns/op \t 128 B/op \t 3 allocs/op", "", "BenchmarkX",
			map[string]float64{"ns/op": 42, "B/op": 128, "allocs/op": 3}, true},
		{"123 \t 7.5 ns/op \t 0 B/op \t 0 allocs/op", "BenchmarkY", "BenchmarkY",
			map[string]float64{"ns/op": 7.5, "B/op": 0, "allocs/op": 0}, true},
		{"123 \t 7.5 ns/op", "", "", nil, false},
		{"PASS", "BenchmarkY", "", nil, false},
		// A custom-metric-only line without ns/op is not a result line.
		{"BenchmarkZ-8 \t 10 \t 99 widgets/op", "", "", nil, false},
	}
	for _, c := range cases {
		name, vals, ok := parseBenchLine(c.line, c.pending)
		if name != c.wantName || ok != c.wantOK {
			t.Errorf("parseBenchLine(%q, %q) = (%q, %v, %v), want (%q, %v, %v)",
				c.line, c.pending, name, vals, ok, c.wantName, c.wantVals, c.wantOK)
			continue
		}
		if !ok {
			continue
		}
		if len(vals) != len(c.wantVals) {
			t.Errorf("parseBenchLine(%q) vals = %v, want %v", c.line, vals, c.wantVals)
			continue
		}
		for unit, want := range c.wantVals {
			if vals[unit] != want {
				t.Errorf("parseBenchLine(%q) %s = %v, want %v", c.line, unit, vals[unit], want)
			}
		}
	}
}

func TestBenchName(t *testing.T) {
	if got := benchName("BenchmarkFoo-8"); got != "BenchmarkFoo" {
		t.Errorf("benchName stripped to %q", got)
	}
	if got := benchName("BenchmarkBar"); got != "BenchmarkBar" {
		t.Errorf("benchName(%q) = %q", "BenchmarkBar", got)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 2, 3}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
}

func TestDeltaPct(t *testing.T) {
	if got := deltaPct(100, 150); got != 50 {
		t.Errorf("deltaPct(100, 150) = %v, want 50", got)
	}
	if got := deltaPct(0, 0); got != 0 {
		t.Errorf("deltaPct(0, 0) = %v, want 0", got)
	}
	if got := deltaPct(0, 1); !math.IsInf(got, 1) {
		t.Errorf("deltaPct(0, 1) = %v, want +Inf", got)
	}
}

func bench(name string, ns float64) string {
	return fmt.Sprintf("%s-8 \t 100 \t %g ns/op", name, ns)
}

func benchMem(name string, ns, bytes, allocs float64) string {
	return fmt.Sprintf("%s-8 \t 100 \t %g ns/op \t %g B/op \t %g allocs/op", name, ns, bytes, allocs)
}

func TestRunExitCodes(t *testing.T) {
	old := writeStream(t, "old.json", []string{bench("BenchmarkA", 100)})
	fast := writeStream(t, "fast.json", []string{bench("BenchmarkA", 102)})
	slow := writeStream(t, "slow.json", []string{bench("BenchmarkA", 200)})

	cases := []struct {
		name string
		args []string
		want int
	}{
		{"within tolerance", []string{"-tolerance", "5", old, fast}, exitOK},
		{"no gate ignores regression", []string{old, slow}, exitOK},
		{"regression beyond tolerance", []string{"-tolerance", "5", old, slow}, exitRegression},
		{"missing arg", []string{old}, exitUsage},
		{"negative tolerance", []string{"-tolerance", "-1", old, fast}, exitUsage},
		{"missing baseline", []string{filepath.Join(t.TempDir(), "nope.json"), fast}, exitUsage},
	}
	for _, c := range cases {
		var out, errb bytes.Buffer
		if got := run(c.args, &out, &errb); got != c.want {
			t.Errorf("%s: run(%v) = %d, want %d (stderr: %s)", c.name, c.args, got, c.want, errb.String())
		}
	}
}

// TestRunReportsRemovedAndAddedBenchmarks: deleting a benchmark of a deleted
// design must not trip the gate — a name present only in the baseline is
// listed as gone, one present only in the current run as new, and neither
// is compared.
func TestRunReportsRemovedAndAddedBenchmarks(t *testing.T) {
	old := writeStream(t, "old.json", []string{bench("BenchmarkKept", 100), bench("BenchmarkRemoved", 100)})
	cur := writeStream(t, "cur.json", []string{bench("BenchmarkKept", 101), bench("BenchmarkAdded", 5000)})
	var out, errb bytes.Buffer
	if got := run([]string{"-tolerance", "5", old, cur}, &out, &errb); got != exitOK {
		t.Fatalf("run = %d, want %d (stderr: %s)", got, exitOK, errb.String())
	}
	for _, want := range []string{"BenchmarkRemoved", "gone", "BenchmarkAdded", "new"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("stdout missing %q:\n%s", want, out.String())
		}
	}
}

func TestRunGatesMemoryMetrics(t *testing.T) {
	// Time holds steady but allocations rise: the memory gate must fire.
	old := writeStream(t, "old.json", []string{benchMem("BenchmarkA", 100, 64, 2)})
	leaky := writeStream(t, "leaky.json", []string{benchMem("BenchmarkA", 100, 64, 4)})
	var out, errb bytes.Buffer
	if got := run([]string{"-tolerance", "10", old, leaky}, &out, &errb); got != exitRegression {
		t.Fatalf("allocs/op regression: run = %d, want %d (stderr: %s)", got, exitRegression, errb.String())
	}
	if !strings.Contains(errb.String(), "allocs/op") {
		t.Errorf("stderr does not name the regressed metric: %s", errb.String())
	}

	// Any rise from a zero baseline regresses, however small the tolerance
	// would otherwise allow (0 → 1 alloc has no finite percentage).
	zero := writeStream(t, "zero.json", []string{benchMem("BenchmarkA", 100, 0, 0)})
	one := writeStream(t, "one.json", []string{benchMem("BenchmarkA", 100, 16, 1)})
	out.Reset()
	errb.Reset()
	if got := run([]string{"-tolerance", "50", zero, one}, &out, &errb); got != exitRegression {
		t.Fatalf("zero-baseline regression: run = %d, want %d (stderr: %s)", got, exitRegression, errb.String())
	}
	if !strings.Contains(out.String(), "+∞") {
		t.Errorf("stdout missing infinite delta: %s", out.String())
	}

	// Unchanged memory metrics pass the gate.
	same := writeStream(t, "same.json", []string{benchMem("BenchmarkA", 101, 64, 2)})
	out.Reset()
	errb.Reset()
	if got := run([]string{"-tolerance", "10", old, same}, &out, &errb); got != exitOK {
		t.Fatalf("steady run = %d, want %d (stderr: %s)", got, exitOK, errb.String())
	}

	// A baseline without memory metrics gates ns/op only: a new run that
	// adds -benchmem must not fail for lacking something to compare.
	plain := writeStream(t, "plain.json", []string{bench("BenchmarkA", 100)})
	withMem := writeStream(t, "withmem.json", []string{benchMem("BenchmarkA", 100, 512, 9)})
	out.Reset()
	errb.Reset()
	if got := run([]string{"-tolerance", "10", plain, withMem}, &out, &errb); got != exitOK {
		t.Fatalf("mixed-metric run = %d, want %d (stderr: %s)", got, exitOK, errb.String())
	}
}

func TestRunReportsRegressedBenchmarks(t *testing.T) {
	old := writeStream(t, "old.json", []string{bench("BenchmarkA", 100)})
	slow := writeStream(t, "slow.json", []string{bench("BenchmarkA", 150)})
	var out, errb bytes.Buffer
	if got := run([]string{"-tolerance", "10", old, slow}, &out, &errb); got != exitRegression {
		t.Fatalf("run = %d, want %d", got, exitRegression)
	}
	if !strings.Contains(errb.String(), "BenchmarkA") {
		t.Errorf("stderr does not name the regressed benchmark: %s", errb.String())
	}
	if !strings.Contains(out.String(), "+50.0%") {
		t.Errorf("stdout missing delta: %s", out.String())
	}
}
