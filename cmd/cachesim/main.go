// Command cachesim replays request traces through the cachestore's GDSF
// eviction order and reports its object and byte hit ratios as a percentage
// of an offline optimal upper bound, in the style of webcachesim.
//
//	cachesim -trace access.trace -budget 64MiB
//	cachesim -synth -requests 100000 -objects 5000 -budget 2%
//	cachesim -synth -check          # CI smoke: assert invariants hold
//
// Traces are webcachesim format — one "time id size" triple per line,
// '#' comments and blank lines skipped. The harness can export such
// traces from emulated page loads (see internal/cachesim.Recorder), so
// the same tool evaluates both synthetic and measured workloads.
//
// Budgets are either absolute bytes (with optional KiB/MiB/GiB suffix) or
// a percentage of the trace's unique-object byte total ("2%"), the
// convention in the caching-simulator literature.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"cachecatalyst/internal/cachesim"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command: it parses args, replays, writes the table to stdout
// and diagnostics to stderr, and returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("cachesim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		traceFile = fs.String("trace", "", "webcachesim-format trace file to replay")
		synth     = fs.Bool("synth", false, "replay a synthetic Zipf/lognormal trace instead of a file")
		requests  = fs.Int("requests", 100000, "synthetic trace length")
		objects   = fs.Int("objects", 5000, "synthetic catalog size")
		zipfS     = fs.Float64("zipf", 1.08, "synthetic Zipf popularity exponent (>1)")
		seed      = fs.Int64("seed", 1, "synthetic trace seed")
		budgetStr = fs.String("budget", "2%", "cache size: bytes (64MiB) or % of unique bytes (2%)")
		check     = fs.Bool("check", false, "smoke mode: verify invariants and exit non-zero on violation")
	)
	if err := fs.Parse(args); errors.Is(err, flag.ErrHelp) {
		return 0
	} else if err != nil {
		return 2
	}
	fail := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "cachesim: "+format+"\n", a...)
		return 1
	}

	var trace []cachesim.Request
	var source string
	switch {
	case *traceFile != "" && *synth:
		return fail("pass -trace or -synth, not both")
	case *traceFile != "":
		f, err := os.Open(*traceFile)
		if err != nil {
			return fail("%v", err)
		}
		trace, err = cachesim.ParseTrace(f)
		f.Close()
		if err != nil {
			return fail("%v", err)
		}
		source = *traceFile
	case *synth:
		trace = cachesim.Synthesize(cachesim.SynthOptions{
			Requests: *requests,
			Objects:  *objects,
			ZipfS:    *zipfS,
			Seed:     *seed,
		})
		source = fmt.Sprintf("synthetic (zipf %.2f, %d objects, seed %d)", *zipfS, *objects, *seed)
	default:
		return fail("pass -trace FILE or -synth (see -help)")
	}
	if len(trace) == 0 {
		return fail("trace is empty")
	}

	budget, err := parseBudget(*budgetStr, trace)
	if err != nil {
		return fail("%v", err)
	}

	ub := cachesim.UpperBound(trace, budget)
	fmt.Fprintf(stdout, "trace: %s — %d requests, %s requested, budget %s\n\n",
		source, ub.Requests, formatBytes(ub.BytesRequested), formatBytes(budget))

	fmt.Fprintf(stdout, "%-14s %8s %8s %8s %8s %10s\n",
		"policy", "OHR", "%opt", "BHR", "%opt", "evictions")
	res := cachesim.Replay(trace, budget)
	fmt.Fprintf(stdout, "%-14s %8.4f %7.1f%% %8.4f %7.1f%% %10d\n",
		"gdsf", res.OHR(), pctOf(res.OHR(), ub.OHR()), res.BHR(), pctOf(res.BHR(), ub.BHR()),
		res.Counters.Evictions)
	fmt.Fprintf(stdout, "%-14s %8.4f %7.1f%% %8.4f %7.1f%%\n", "foo-bound", ub.OHR(), 100.0, ub.BHR(), 100.0)
	if !*check {
		return 0
	}
	failed := false
	switch {
	case res.OHR() < 0 || res.OHR() > 1 || res.BHR() < 0 || res.BHR() > 1:
		fmt.Fprintln(stderr, "check: gdsf ratios out of range")
		failed = true
	case res.OHR() > ub.OHR()+1e-9 || res.BHR() > ub.BHR()+1e-9:
		fmt.Fprintln(stderr, "check: gdsf exceeds the offline upper bound")
		failed = true
	case res.Hits == 0:
		fmt.Fprintln(stderr, "check: gdsf scored zero hits; replay inert")
		failed = true
	}
	if ub.OHR() <= 0 || ub.BHR() <= 0 {
		fmt.Fprintln(stderr, "check: upper bound degenerate")
		failed = true
	}
	if failed {
		return 1
	}
	fmt.Fprintln(stdout, "\ncheck: ok")
	return 0
}

// parseBudget accepts "1234", "64KiB", "16MiB", "1GiB" or "2%" (of the
// trace's unique-object byte total).
func parseBudget(s string, trace []cachesim.Request) (int64, error) {
	s = strings.TrimSpace(s)
	if strings.HasSuffix(s, "%") {
		frac, err := strconv.ParseFloat(strings.TrimSuffix(s, "%"), 64)
		if err != nil || frac <= 0 {
			return 0, fmt.Errorf("bad budget %q", s)
		}
		seen := make(map[uint64]bool)
		var unique int64
		for _, req := range trace {
			if !seen[req.ID] {
				seen[req.ID] = true
				unique += req.Size
			}
		}
		b := int64(frac / 100 * float64(unique))
		if b < 1 {
			b = 1
		}
		return b, nil
	}
	mult := int64(1)
	for _, u := range []struct {
		suffix string
		mult   int64
	}{{"KiB", 1 << 10}, {"MiB", 1 << 20}, {"GiB", 1 << 30}} {
		if strings.HasSuffix(s, u.suffix) {
			s, mult = strings.TrimSuffix(s, u.suffix), u.mult
			break
		}
	}
	n, err := strconv.ParseInt(strings.TrimSpace(s), 10, 64)
	if err != nil || n <= 0 {
		return 0, fmt.Errorf("bad budget %q", s)
	}
	return n * mult, nil
}

func pctOf(x, bound float64) float64 {
	if bound == 0 {
		return 0
	}
	return 100 * x / bound
}

func formatBytes(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.1fGiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%dB", n)
	}
}
