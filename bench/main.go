// Command bench is the repository's benchmark: five traffic shapes driven
// against the real daemons and the simulator as child processes, with
// server CPU per request as the stable currency and a per-layer ledger
// timed from outside. See README.md in this directory.
//
//	go run ./bench -workload page_warm            # one measured run
//	go run ./bench -workload page_warm -trace 1   # the per-layer ledger
//	go run ./bench                                # every workload
//	go run ./bench -compare A.json B.json         # judge two sets of runs
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
)

func main() {
	var (
		name    = flag.String("workload", "all", "workload to run, or all: "+strings.Join(workloadNames(), " | "))
		seed    = flag.Int64("seed", 1, "seed of the workload's inputs")
		seconds = flag.Float64("seconds", defaultSeconds, "length of the measured phase")
		trace   = flag.Int("trace", 0, "1 runs the traced run and prints the per-layer metrics instead of the end-to-end ones")
		jsonOut = flag.String("json", "", "append this run, with its run record, to the given JSON file")
		compare = flag.Bool("compare", false, "compare two run files given as arguments: parent first, change second")
	)
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatal("-compare takes two run files: parent.json change.json")
		}
		os.Exit(compareFiles(flag.Arg(0), flag.Arg(1), os.Stdout))
	}
	if flag.NArg() != 0 {
		fatal("unexpected arguments: %v", flag.Args())
	}
	if *seconds < 1 {
		fatal("-seconds must be at least 1")
	}
	var selected []*workload
	if *name == "all" {
		selected = workloads
	} else if w := findWorkload(*name); w != nil {
		selected = []*workload{w}
	} else {
		fatal("unknown workload %q; have %s", *name, strings.Join(workloadNames(), ", "))
	}
	stopAllOnSignal()
	if err := buildPrograms(); err != nil {
		fatal("%v", err)
	}

	rec := newRunRecord(*seed, *seconds)
	exit := 0
	for _, w := range selected {
		res, err := runWorkload(w, *seed, *seconds, *trace != 0)
		if err != nil {
			// No result line: the contract is a non-zero exit without one.
			fatal("%s: %v", w.name, err)
		}
		rec.Results = append(rec.Results, res)
		printResult(res)
		if !res.Correct {
			exit = 1
		}
	}
	if *jsonOut != "" {
		if err := appendRun(*jsonOut, rec); err != nil {
			fatal("%v", err)
		}
	}
	os.Exit(exit)
}

// defaultSeconds is the measured phase length the benchmark was sized
// with; BENCHMARK.json's run_seconds carries the same number.
const defaultSeconds = 15

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

func runWorkload(w *workload, seed int64, seconds float64, trace bool) (*result, error) {
	switch {
	case w.run != nil:
		return w.run(w, seed, seconds, trace)
	case trace:
		return runTraced(w, seed, seconds)
	default:
		return runDaemonWorkload(w, seed, seconds)
	}
}

// printResult writes the human table, then the machine line the driver
// reads: one JSON object, last on standard output.
func printResult(r *result) {
	kind := "end-to-end"
	if r.Trace {
		kind = "per-layer"
	}
	fmt.Printf("== %s (%s; %d operations in %d windows; load %.2f -> %.2f; box %.0f%% busy at start%s)\n",
		r.Workload, kind, r.Samples, r.Windows, r.LoadStart, r.LoadEnd, 100*r.BusyStart, map[bool]string{true: ", NOISY", false: ""}[r.Noisy])
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-36s %16.4f %s\n", n, r.Metrics[n], unitOf(n))
	}
	for _, n := range r.Notes {
		fmt.Printf("note: %s\n", n)
	}
	for _, p := range r.Problems {
		fmt.Printf("PROBLEM: %s\n", p)
	}
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool          `json:"correct"`
		Attempted int64         `json:"attempted"`
		Failed    int64         `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]mv{}}
	for n, v := range r.Metrics {
		line.Metrics[n] = mv{Value: v, Unit: unitOf(n)}
	}
	b, err := json.Marshal(line)
	if err != nil {
		fatal("result line: %v", err)
	}
	fmt.Println(string(b))
}
