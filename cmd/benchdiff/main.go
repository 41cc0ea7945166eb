// Command benchdiff compares two benchmark runs captured as `go test -json`
// streams (the files `make bench` writes) and prints a per-benchmark
// comparison of ns/op, B/op and allocs/op — a dependency-free stand-in for
// benchstat, so the repository's `make benchdiff` gate needs nothing
// outside the toolchain.
//
// Usage:
//
//	benchdiff [-tolerance PCT] OLD.json NEW.json
//
// Each benchmark's samples (the -count repetitions) are reduced per metric
// to their median, which is robust against the stray slow iteration a
// shared CI machine produces. Benchmarks present in only one file are
// listed but not compared.
//
// With -tolerance set, benchdiff becomes a gate: any benchmark metric whose
// median regressed by more than the given percentage fails the run. Memory
// metrics gate alongside time — an optimization that holds ns/op but starts
// allocating on a previously allocation-free path (B/op or allocs/op rising
// from a zero baseline) is a regression no percentage can express, so any
// increase from zero fails outright. Exit status: 0 when the comparison
// succeeds within tolerance, 1 when at least one metric regressed beyond
// it, 2 on usage or parse errors — including a missing baseline, which is
// reported loudly rather than silently compared against nothing.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

type event struct {
	Action string `json:"Action"`
	Output string `json:"Output"`
}

// metrics are the testing-package result units benchdiff tracks, in
// display order. ns/op is always present; the memory metrics appear when
// the benchmark ran with -benchmem or b.ReportAllocs().
var metrics = []string{"ns/op", "B/op", "allocs/op"}

// samples holds one benchmark's values per metric.
type samples map[string][]float64

// parseFile extracts per-metric samples per benchmark name from a
// `go test -json` stream. A benchmark the stream ran at more than one
// GOMAXPROCS (`make bench` sweeps the cache core with -cpu 1,2) is reported
// once per value as "Name/cpu=N"; pooling them would hide the scaling ratio
// the sweep exists to show.
func parseFile(path string) (map[string]samples, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()

	byCPU := make(map[string]map[string]samples) // name → GOMAXPROCS → samples
	// test2json flushes a benchmark's name and its result numbers as
	// separate output events when the run takes long enough, so a bare
	// "BenchmarkFoo" line names the samples that follow until the next
	// name appears (possibly fused with its first sample on one line).
	pending, cpu := "", ""
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var ev event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			continue // tolerate non-JSON noise in the stream
		}
		if ev.Action != "output" {
			continue
		}
		line := strings.TrimSpace(ev.Output)
		if strings.HasPrefix(line, "Benchmark") {
			full := strings.Fields(line)[0]
			cpu = "1" // testing omits the suffix at GOMAXPROCS=1
			if base := benchName(full); base != full {
				cpu = full[len(base)+1:]
			}
			if full == line {
				pending = benchName(full)
				continue
			}
		}
		name, vals, ok := parseBenchLine(line, pending)
		if !ok {
			continue
		}
		if byCPU[name] == nil {
			byCPU[name] = make(map[string]samples)
		}
		s := byCPU[name][cpu]
		if s == nil {
			s = make(samples)
			byCPU[name][cpu] = s
		}
		for unit, v := range vals {
			s[unit] = append(s[unit], v)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(byCPU) == 0 {
		return nil, fmt.Errorf("%s: no benchmark results found", path)
	}
	out := make(map[string]samples)
	for name, variants := range byCPU {
		for cpu, s := range variants {
			key := name
			if len(variants) > 1 {
				key += "/cpu=" + cpu
			}
			out[key] = s
		}
	}
	return out, nil
}

// parseBenchLine parses one testing result line — either the full form
//
//	BenchmarkName-8   	    9624	     36337 ns/op	      16 B/op	       1 allocs/op
//
// or a bare sample ("9624	36337 ns/op	...") belonging to pending —
// returning the benchmark name and the value of every recognized metric on
// the line. A line with no ns/op value is not a result line.
func parseBenchLine(line, pending string) (string, map[string]float64, bool) {
	fields := strings.Fields(line)
	name := pending
	if strings.HasPrefix(line, "Benchmark") {
		name = benchName(fields[0])
		fields = fields[1:]
	}
	if name == "" || len(fields) < 3 {
		return "", nil, false
	}
	vals := make(map[string]float64)
	for i := 1; i+1 < len(fields); i++ {
		for _, unit := range metrics {
			if fields[i+1] == unit {
				if v, err := strconv.ParseFloat(fields[i], 64); err == nil {
					vals[unit] = v
				}
			}
		}
	}
	if _, ok := vals["ns/op"]; !ok {
		return "", nil, false
	}
	return name, vals, true
}

// benchName strips the -GOMAXPROCS suffix testing appends when running
// with more than one CPU.
func benchName(s string) string {
	if j := strings.LastIndex(s, "-"); j > 0 {
		if _, err := strconv.Atoi(s[j+1:]); err == nil {
			return s[:j]
		}
	}
	return s
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Exit codes.
const (
	exitOK         = 0
	exitRegression = 1
	exitUsage      = 2
)

// deltaPct returns the regression percentage from old to new medians. A
// rise from a zero baseline is +Inf: any allocation appearing on a
// previously allocation-free path regresses regardless of tolerance.
func deltaPct(old, new float64) float64 {
	switch {
	case old == 0 && new == 0:
		return 0
	case old == 0:
		return math.Inf(1)
	default:
		return (new - old) / old * 100
	}
}

func formatDelta(d float64) string {
	if math.IsInf(d, 1) {
		return "+∞"
	}
	return fmt.Sprintf("%+.1f%%", d)
}

// run is the testable entry point: it parses args (without the program
// name), writes the comparison to stdout and diagnostics to stderr, and
// returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchdiff", flag.ContinueOnError)
	fs.SetOutput(stderr)
	tolerance := fs.Float64("tolerance", 0,
		"fail (exit 1) if any benchmark's median ns/op, B/op or allocs/op regressed by more than this percentage; 0 disables the gate")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: benchdiff [-tolerance PCT] OLD.json NEW.json")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return exitUsage
	}
	if fs.NArg() != 2 {
		fs.Usage()
		return exitUsage
	}
	if *tolerance < 0 {
		fmt.Fprintln(stderr, "benchdiff: -tolerance must be non-negative")
		return exitUsage
	}
	oldPath, newPath := fs.Arg(0), fs.Arg(1)
	old, err := parseFile(oldPath)
	if err != nil {
		fmt.Fprintf(stderr, "benchdiff: baseline unusable: %v\n", err)
		return exitUsage
	}
	cur, err := parseFile(newPath)
	if err != nil {
		fmt.Fprintf(stderr, "benchdiff: current run unusable: %v\n", err)
		return exitUsage
	}

	names := make([]string, 0, len(old)+len(cur))
	seen := make(map[string]bool)
	for n := range old {
		names = append(names, n)
		seen[n] = true
	}
	for n := range cur {
		if !seen[n] {
			names = append(names, n)
		}
	}
	sort.Strings(names)

	var regressed []string
	fmt.Fprintf(stdout, "%-55s %-9s %14s %14s %9s\n", "benchmark", "metric", "old", "new", "delta")
	for _, n := range names {
		o, hasOld := old[n]
		c, hasNew := cur[n]
		switch {
		case !hasOld:
			fmt.Fprintf(stdout, "%-55s %-9s %14s %14.0f %9s\n", n, "ns/op", "-", median(c["ns/op"]), "new")
		case !hasNew:
			fmt.Fprintf(stdout, "%-55s %-9s %14.0f %14s %9s\n", n, "ns/op", median(o["ns/op"]), "-", "gone")
		default:
			for _, unit := range metrics {
				os, hasO := o[unit]
				cs, hasC := c[unit]
				if !hasO || !hasC {
					continue
				}
				om, cm := median(os), median(cs)
				delta := deltaPct(om, cm)
				fmt.Fprintf(stdout, "%-55s %-9s %14.0f %14.0f %9s\n", n, unit, om, cm, formatDelta(delta))
				if *tolerance > 0 && delta > *tolerance {
					regressed = append(regressed,
						fmt.Sprintf("%s %s (%s > %+.1f%%)", n, unit, formatDelta(delta), *tolerance))
				}
			}
		}
	}
	if len(regressed) > 0 {
		fmt.Fprintf(stderr, "benchdiff: %d benchmark metric(s) regressed beyond tolerance:\n", len(regressed))
		for _, r := range regressed {
			fmt.Fprintf(stderr, "  %s\n", r)
		}
		return exitRegression
	}
	return exitOK
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}
