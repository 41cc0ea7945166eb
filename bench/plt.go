package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"time"

	"cachecatalyst/internal/harness"
	"cachecatalyst/internal/vclock"
	"cachecatalyst/internal/webgen"
)

// Size of one plt_sweep iteration. The sweep is fixed work repeated for
// the length of the measured phase; an iteration is sized to take two to
// three seconds on the box the benchmark was sized on, so a run holds
// several and reports their median.
const (
	pltHeadlineSites = 4
	pltMatrixSites   = 5
	// One measurement goroutine: with two, the headline sweep's means differ
	// in the last bit from run to run (sums taken in completion order) and
	// peak RSS swings by half with garbage-collector timing; with one, the
	// output repeats byte for byte and peak RSS within a few percent.
	pltParallel = 1
	// pltCorpusSites sizes the set-up step (`pltbench -experiment corpus`)
	// so that it takes long enough to be timed.
	pltCorpusSites = 1500

	// Simulated page loads per site: the headline sweep crosses 12 link
	// conditions with a cold load and 5 revisit delays under 2 schemes; the
	// scheme matrix crosses 4 conditions and 6 schemes with a cold load and
	// 2 revisits.
	headlineLoadsPerSite = 12 * (1 + 5) * 2
	matrixLoadsPerSite   = 4 * 6 * (1 + 2)
	pltLoadsPerIteration = pltHeadlineSites*headlineLoadsPerSite + pltMatrixSites*matrixLoadsPerSite
)

// headlineJSON and matrixJSON are the parts of the simulator's output the
// benchmark reads.
type headlineJSON struct {
	Median5GReduction float64
	OverallReduction  float64
	Sweep             struct {
		Cells []struct{ Samples int }
	}
}

type matrixJSON struct {
	Cells [][]struct {
		Scheme int
		Cond   struct {
			RTT         int64
			DownlinkBps float64
		}
		MeanWarmRequests float64
		Samples          int
	}
}

// The scheme-matrix cell warm_reqs_per_load is read from: catalyst
// (scheme 1) on the matrix's high-bandwidth, high-latency link, the
// latency-constrained case the paper is about.
const (
	matrixCatalystScheme = 1
	matrixRTT            = 80 * time.Millisecond
	matrixDownlinkBps    = 60e6
)

// pltShape is the corpus shape plt_sweep is defined on: the medians, over
// three thousand seeds, of what the two sweeps simulate. The cost of a
// simulated load follows the site's resource count and weight, and four
// sites average too little: over ten seeds CPU per load spread by 10%.
var pltShape = struct {
	headlineResLo, headlineResHi     int   // resources, headline sites together
	headlineBytesLo, headlineBytesHi int64 // page weight, headline sites together
	matrixResLo, matrixResHi         int   // resources, matrix sites together
}{262, 274, 13_600_000, 14_500_000, 115, 121}

// pltSimSeed derives the corpus seed the simulator is run with: the first
// of seed*1000, seed*1000+1, … whose corpora have the workload's shape. About
// one seed in twenty does.
func pltSimSeed(seed int64) (int64, error) {
	clock := vclock.NewVirtual(vclock.Epoch)
	b := pltShape
	for k := int64(0); k < 1000; k++ {
		s := seed*1000 + k
		var res int
		var weight int64
		for i := 0; i < pltHeadlineSites; i++ {
			site := webgen.GenerateOne(webgen.Params{Seed: s}, i, clock)
			res += site.NumResources()
			weight += site.TotalBytes()
		}
		if res < b.headlineResLo || res > b.headlineResHi || weight < b.headlineBytesLo || weight > b.headlineBytesHi {
			continue
		}
		matrix := harness.QuickMatrixConfig().Corpus
		matrix.Seed = s
		res = 0
		for i := 0; i < pltMatrixSites; i++ {
			res += webgen.GenerateOne(matrix, i, clock).NumResources()
		}
		if res >= b.matrixResLo && res <= b.matrixResHi {
			return s, nil
		}
	}
	return 0, fmt.Errorf("seed %d: no corpus of the workload's shape among a thousand candidates", seed)
}

// pltOutputs is what one iteration's children printed and used.
type pltOutputs struct {
	headline, matrix []byte
	usage            []childUsage
}

func pltIteration(seed int64) (pltOutputs, error) {
	s := strconv.FormatInt(seed, 10)
	par := strconv.Itoa(pltParallel)
	var out pltOutputs
	h, hu, err := runToCompletion(binPath("pltbench"), "-experiment", "headline", "-full",
		"-sites", strconv.Itoa(pltHeadlineSites), "-seed", s, "-parallel", par, "-json")
	if err != nil {
		return out, err
	}
	m, mu, err := runToCompletion(binPath("schemes"),
		"-sites", strconv.Itoa(pltMatrixSites), "-seed", s, "-parallel", par, "-json")
	if err != nil {
		return out, err
	}
	out.headline, out.matrix, out.usage = h, m, []childUsage{hu, mu}
	return out, nil
}

// pltQuality extracts the paper's result from one iteration's outputs and
// checks the outputs are what the flags asked for.
func pltQuality(o pltOutputs) (red5g, redGrid, warmReqs float64, err error) {
	var h headlineJSON
	if err := json.Unmarshal(o.headline, &h); err != nil {
		return 0, 0, 0, fmt.Errorf("pltbench output: %w", err)
	}
	var m matrixJSON
	if err := json.Unmarshal(o.matrix, &m); err != nil {
		return 0, 0, 0, fmt.Errorf("schemes output: %w", err)
	}
	if len(h.Sweep.Cells) != 12 {
		return 0, 0, 0, fmt.Errorf("headline sweep has %d link conditions, want 12", len(h.Sweep.Cells))
	}
	for _, c := range h.Sweep.Cells {
		if c.Samples != pltHeadlineSites*5 {
			return 0, 0, 0, fmt.Errorf("headline cell has %d samples, want %d sites x 5 delays", c.Samples, pltHeadlineSites)
		}
	}
	found := false
	for _, row := range m.Cells {
		for _, c := range row {
			if c.Scheme == matrixCatalystScheme && time.Duration(c.Cond.RTT) == matrixRTT && c.Cond.DownlinkBps == matrixDownlinkBps {
				warmReqs, found = c.MeanWarmRequests, true
			}
		}
	}
	if !found {
		return 0, 0, 0, fmt.Errorf("scheme matrix has no catalyst cell at %v / %.0f bps", matrixRTT, matrixDownlinkBps)
	}
	for _, v := range []float64{h.Median5GReduction, h.OverallReduction, warmReqs} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return 0, 0, 0, fmt.Errorf("simulator reported a non-finite result")
		}
	}
	return h.Median5GReduction, h.OverallReduction, warmReqs, nil
}

// pltSetup times the sweep's set-up step: generating the corpus and its
// calibration statistics.
func pltSetup(seed int64) (float64, error) {
	var times []float64
	for i := 0; i < setupRepeats; i++ {
		_, u, err := runToCompletion(binPath("pltbench"), "-experiment", "corpus", "-full",
			"-sites", strconv.Itoa(pltCorpusSites), "-seed", strconv.FormatInt(seed, 10), "-json")
		if err != nil {
			return 0, err
		}
		times = append(times, u.Wall.Seconds())
	}
	return median(times), nil
}

// runPLTSweep repeats the fixed sweep for the measured phase. Every
// iteration uses the same seed, so every iteration must print the same
// bytes: that is the determinism check, and it needs at least two.
func runPLTSweep(w *workload, seed int64, seconds float64, trace bool) (*result, error) {
	res := newResult(w, trace)
	seed, err := pltSimSeed(seed)
	if err != nil {
		return nil, err
	}
	setupS, err := pltSetup(seed)
	if err != nil {
		return nil, err
	}
	var first pltOutputs
	var perLoadMs, rates, cpuUS []float64
	var peakMiB []float64
	iterations, mismatched := 0, 0
	start := time.Now()
	for iterations < 2 || time.Since(start).Seconds() < seconds {
		o, err := pltIteration(seed)
		if err != nil {
			return nil, err
		}
		iterations++
		if iterations == 1 {
			first = o
		} else if !bytes.Equal(o.headline, first.headline) || !bytes.Equal(o.matrix, first.matrix) {
			mismatched++
		}
		var wall, cpu time.Duration
		var peakKiB int64
		for _, u := range o.usage {
			wall += u.Wall
			cpu += u.CPU
			if u.PeakRSSKiB > peakKiB {
				peakKiB = u.PeakRSSKiB
			}
		}
		peakMiB = append(peakMiB, float64(peakKiB)/1024)
		cpuUS = append(cpuUS, float64(cpu.Microseconds())/pltLoadsPerIteration)
		rates = append(rates, pltLoadsPerIteration/wall.Seconds())
		perLoadMs = append(perLoadMs, wall.Seconds()*1000*pltParallel/pltLoadsPerIteration)
		if trace {
			break // the traced run needs the outputs once, not their timing
		}
	}
	res.LoadEnd = loadAverage1()
	res.Attempted = int64(iterations) * pltLoadsPerIteration
	res.Failed = int64(mismatched) * pltLoadsPerIteration
	res.Samples, res.Windows = res.Attempted, iterations
	if mismatched > 0 {
		res.problem("%d of %d iterations printed different bytes for the same seed", mismatched, iterations)
	}
	red5g, redGrid, warmReqs, err := pltQuality(first)
	if err != nil {
		res.problem("%v", err)
		res.Failed = res.Attempted
	}
	if trace {
		traceClientHalf(res, seed)
		res.Metrics["plt.reduction_5g_pct"] = red5g
		res.Metrics["plt.reduction_grid_pct"] = redGrid
		res.Metrics["plt.warm_reqs_per_load"] = warmReqs
		fillMissing(res)
		return res, nil
	}
	res.Metrics["setup_s"] = setupS
	res.Metrics["throughput_rps"] = median(rates)
	res.Metrics["cpu_us_per_op"] = median(cpuUS)
	res.Metrics["latency_p50_ms"] = median(perLoadMs)
	res.Metrics["rss_mib"] = median(peakMiB)
	res.Notes = append(res.Notes, fmt.Sprintf("plt.reduction_5g_pct %.4f, plt.reduction_grid_pct %.4f, plt.warm_reqs_per_load %.4f (deterministic per seed; gated by the traced run's ledger and the repo's golden tests)", red5g, redGrid, warmReqs))
	return res, nil
}
