package main

import (
	"fmt"
	"io"
	"text/tabwriter"
)

// Verdicts of a comparison, per workload × end-to-end metric.
const (
	verdictGain       = "gain"
	verdictUnchanged  = "unchanged"
	verdictUnresolved = "unresolved"
	verdictRegressed  = "REGRESSED"
)

// minPairsForGain and winShare are the paired-run rule: a gain needs at
// least ten pairs, the change winning nine tenths of them (ties count for
// neither side), and medians further apart than the parent's own
// inter-quartile distance.
const (
	minPairsForGain = 10
	winShare        = 0.9
)

// comparison is one row of the table.
type comparison struct {
	Workload, Metric     string
	Pairs                int
	ParentMed, ChangeMed float64
	ParentQ1, ParentQ3   float64
	Wins, Losses         int
	DeltaPct             float64 // positive = worse
	SpreadPct            float64 // parent's IQR as a share of its median
	Verdict              string
}

// judge applies the rule to one metric's paired values. parent[i] and
// change[i] are one pair; the two sides of a pair ran back to back, in
// alternating order, which the caller arranges when it makes the runs.
func judge(def metricDef, parent, change []float64) comparison {
	n := len(parent)
	if len(change) < n {
		n = len(change)
	}
	parent, change = parent[:n], change[:n]
	c := comparison{Metric: def.Name, Pairs: n, ParentMed: median(parent), ChangeMed: median(change)}
	c.ParentQ1, c.ParentQ3 = quartiles(parent)
	better := func(a, b float64) bool { // a better than b
		if def.Better == "higher" {
			return a > b
		}
		return a < b
	}
	for i := 0; i < n; i++ {
		switch {
		case better(change[i], parent[i]):
			c.Wins++
		case better(parent[i], change[i]):
			c.Losses++
		}
	}
	if c.ParentMed != 0 {
		c.DeltaPct = 100 * (c.ChangeMed - c.ParentMed) / c.ParentMed
		if def.Better == "higher" {
			c.DeltaPct = -c.DeltaPct
		}
		c.SpreadPct = 100 * (c.ParentQ3 - c.ParentQ1) / c.ParentMed
	}
	allBetter := n > 0
	for _, b := range change {
		for _, a := range parent {
			if !better(b, a) {
				allBetter = false
			}
		}
	}
	iqr := c.ParentQ3 - c.ParentQ1
	diff := c.ChangeMed - c.ParentMed
	if diff < 0 {
		diff = -diff
	}
	switch {
	case c.DeltaPct > 100*def.Bound:
		c.Verdict = verdictRegressed
	case n >= minPairsForGain && float64(c.Wins) >= winShare*float64(n) && better(c.ChangeMed, c.ParentMed) && diff > iqr:
		c.Verdict = verdictGain
	case c.SpreadPct > 100*def.Bound && !allBetter:
		// The parent's own runs disagree by more than the bound: a change
		// of that size could hide in there.
		c.Verdict = verdictUnresolved
	default:
		c.Verdict = verdictUnchanged
	}
	return c
}

// untraced collects, per workload, the end-to-end metrics of every
// untraced result in run order.
func untraced(runs []*runRecord) map[string][]map[string]float64 {
	out := map[string][]map[string]float64{}
	for _, r := range runs {
		for _, res := range r.Results {
			if !res.Trace && res.Correct {
				out[res.Workload] = append(out[res.Workload], res.Metrics)
			}
		}
	}
	return out
}

// compareRuns judges every workload × end-to-end metric present on both
// sides.
func compareRuns(parent, change []*runRecord) []comparison {
	p, c := untraced(parent), untraced(change)
	var rows []comparison
	for _, w := range workloads {
		pr, cr := p[w.name], c[w.name]
		if len(pr) == 0 || len(cr) == 0 {
			continue
		}
		for _, def := range endToEnd {
			var pv, cv []float64
			for i := 0; i < len(pr) && i < len(cr); i++ {
				pv = append(pv, pr[i][def.Name])
				cv = append(cv, cr[i][def.Name])
			}
			row := judge(def, pv, cv)
			row.Workload = w.name
			rows = append(rows, row)
		}
	}
	return rows
}

// compareFiles prints the table and returns the exit code: 1 when any
// metric regressed past its bound, 2 when the files cannot be compared.
func compareFiles(parentPath, changePath string, out io.Writer) int {
	parent, err := readRuns(parentPath)
	if err != nil {
		fmt.Fprintf(out, "bench: %v\n", err)
		return 2
	}
	change, err := readRuns(changePath)
	if err != nil {
		fmt.Fprintf(out, "bench: %v\n", err)
		return 2
	}
	rows := compareRuns(parent, change)
	if len(rows) == 0 {
		fmt.Fprintln(out, "bench: the two files share no correct untraced result")
		return 2
	}
	noisy := 0
	for _, runs := range [][]*runRecord{parent, change} {
		for _, r := range runs {
			for _, res := range r.Results {
				if res.Noisy {
					noisy++
				}
			}
		}
	}
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "workload\tmetric\tpairs\tparent med\t[q1\tq3]\tchange med\tworse by\tbound\twins\tlosses\tverdict\t")
	code := 0
	for _, r := range rows {
		bound := 0.0
		for _, d := range endToEnd {
			if d.Name == r.Metric {
				bound = d.Bound
			}
		}
		fmt.Fprintf(tw, "%s\t%s\t%d\t%.4g\t%.4g\t%.4g\t%.4g\t%+.1f%%\t%.0f%%\t%d\t%d\t%s\t\n",
			r.Workload, r.Metric, r.Pairs, r.ParentMed, r.ParentQ1, r.ParentQ3, r.ChangeMed, r.DeltaPct, 100*bound, r.Wins, r.Losses, r.Verdict)
		if r.Verdict == verdictRegressed {
			code = 1
		}
	}
	tw.Flush()
	if noisy > 0 {
		fmt.Fprintf(out, "%d results were measured on a box that was already busy when they started (noisy); consider re-running those\n", noisy)
	}
	return code
}
