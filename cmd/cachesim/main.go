// Command cachesim replays request traces through the cachestore policies
// and reports each policy's object and byte hit ratios as a percentage of
// an offline optimal upper bound, in the style of webcachesim.
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
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"cachecatalyst/internal/cachesim"
	"cachecatalyst/internal/cachestore"
)

func main() {
	var (
		traceFile = flag.String("trace", "", "webcachesim-format trace file to replay")
		synth     = flag.Bool("synth", false, "replay a synthetic Zipf/lognormal trace instead of a file")
		requests  = flag.Int("requests", 100000, "synthetic trace length")
		objects   = flag.Int("objects", 5000, "synthetic catalog size")
		zipfS     = flag.Float64("zipf", 1.08, "synthetic Zipf popularity exponent (>1)")
		seed      = flag.Int64("seed", 1, "synthetic trace seed")
		budgetStr = flag.String("budget", "2%", "cache size: bytes (64MiB) or % of unique bytes (2%)")
		policies  = flag.String("policies", strings.Join(cachestore.PolicyNames(), ","), "comma-separated policies to replay")
		check     = flag.Bool("check", false, "smoke mode: verify invariants and exit non-zero on violation")
	)
	flag.Parse()

	var trace []cachesim.Request
	var source string
	switch {
	case *traceFile != "" && *synth:
		fatalf("pass -trace or -synth, not both")
	case *traceFile != "":
		f, err := os.Open(*traceFile)
		if err != nil {
			fatalf("%v", err)
		}
		trace, err = cachesim.ParseTrace(f)
		f.Close()
		if err != nil {
			fatalf("%v", err)
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
		fatalf("pass -trace FILE or -synth (see -help)")
	}
	if len(trace) == 0 {
		fatalf("trace is empty")
	}

	budget, err := parseBudget(*budgetStr, trace)
	if err != nil {
		fatalf("%v", err)
	}

	ub := cachesim.UpperBound(trace, budget)
	fmt.Printf("trace: %s — %d requests, %s requested, budget %s\n\n",
		source, ub.Requests, formatBytes(ub.BytesRequested), formatBytes(budget))

	fmt.Printf("%-14s %8s %8s %8s %8s %10s %12s\n",
		"policy", "OHR", "%opt", "BHR", "%opt", "evictions", "victimscans")
	failed := false
	for _, name := range strings.Split(*policies, ",") {
		policy, err := cachestore.ParsePolicy(strings.TrimSpace(name))
		if err != nil {
			fatalf("%v", err)
		}
		res := cachesim.Replay(trace, budget, policy)
		fmt.Printf("%-14s %8.4f %7.1f%% %8.4f %7.1f%% %10d %12d\n",
			res.Policy, res.OHR(), pctOf(res.OHR(), ub.OHR()), res.BHR(), pctOf(res.BHR(), ub.BHR()),
			res.Counters.Evictions, res.Counters.VictimScans)
		if *check {
			switch {
			case res.OHR() < 0 || res.OHR() > 1 || res.BHR() < 0 || res.BHR() > 1:
				fmt.Fprintf(os.Stderr, "check: %s ratios out of range\n", res.Policy)
				failed = true
			case res.OHR() > ub.OHR()+1e-9 || res.BHR() > ub.BHR()+1e-9:
				fmt.Fprintf(os.Stderr, "check: %s exceeds the offline upper bound\n", res.Policy)
				failed = true
			case res.Hits == 0:
				fmt.Fprintf(os.Stderr, "check: %s scored zero hits; replay inert\n", res.Policy)
				failed = true
			}
		}
	}
	fmt.Printf("%-14s %8.4f %7.1f%% %8.4f %7.1f%%\n", "foo-bound", ub.OHR(), 100.0, ub.BHR(), 100.0)
	if *check {
		if ub.OHR() <= 0 || ub.BHR() <= 0 {
			fmt.Fprintln(os.Stderr, "check: upper bound degenerate")
			failed = true
		}
		if failed {
			os.Exit(1)
		}
		fmt.Println("\ncheck: ok")
	}
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

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "cachesim: "+format+"\n", args...)
	os.Exit(1)
}
