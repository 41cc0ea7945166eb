package harness

import (
	"context"
	"reflect"
	"strings"
	"testing"
	"time"

	"cachecatalyst/internal/netsim"
	"cachecatalyst/internal/webgen"
)

func quickCfg() Config {
	cfg := QuickConfig()
	cfg.Corpus.Sites = 4
	cfg.Corpus.Scale = 0.3
	return cfg
}

func TestWorldLoadsAllSchemes(t *testing.T) {
	for _, scheme := range AllSchemes {
		w := NewWorld(quickCfg().Corpus, 0, scheme, netsim.TransportOptions{})
		res, err := w.Load(Median5G())
		if err != nil {
			t.Fatalf("%s: %v", scheme, err)
		}
		if res.Errors != 0 {
			t.Errorf("%s: %d errors on cold load (%+v)", scheme, res.Errors, res)
		}
		if res.Resources < 5 {
			t.Errorf("%s: only %d resources", scheme, res.Resources)
		}
	}
}

func TestWorldsShareContentTrajectory(t *testing.T) {
	// Two worlds over the same site index must see identical content at
	// identical virtual times, regardless of scheme.
	cfg := quickCfg()
	a := NewWorld(cfg.Corpus, 1, SchemeConventional, netsim.TransportOptions{})
	b := NewWorld(cfg.Corpus, 1, SchemeCatalyst, netsim.TransportOptions{})
	a.Advance(36 * time.Hour)
	b.Advance(36 * time.Hour)
	for _, p := range a.Site.Content().Paths() {
		ra, _ := a.Site.Content().Get(p)
		rb, ok := b.Site.Content().Get(p)
		if !ok || ra.ETag != rb.ETag {
			t.Fatalf("trajectories diverged at %s", p)
		}
	}
}

func TestRunFig3ShapeMatchesPaper(t *testing.T) {
	cfg := Config{
		Corpus: webgen.Params{Sites: 6, Seed: 1, Scale: 0.4},
		Grid: []netsim.Conditions{
			{RTT: 40 * time.Millisecond, DownlinkBps: 8e6},
			{RTT: 10 * time.Millisecond, DownlinkBps: 60e6},
			{RTT: 80 * time.Millisecond, DownlinkBps: 60e6},
		},
		Delays: []time.Duration{time.Hour, 24 * time.Hour},
	}
	res, err := RunFig3(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 3 {
		t.Fatalf("cells = %d", len(res.Cells))
	}
	byCond := map[string]Cell{}
	for _, c := range res.Cells {
		byCond[c.Cond.String()] = c
		if c.Samples != 6*2 {
			t.Errorf("%s: samples = %d, want 12", c.Cond, c.Samples)
		}
		if len(c.ByDelay) != 2 {
			t.Errorf("%s: delay points = %d", c.Cond, len(c.ByDelay))
		}
	}
	// Paper shape #1: catalyst helps at high throughput.
	if byCond["60Mbps/80ms"].MeanReductionPct <= 5 {
		t.Errorf("60Mbps/80ms reduction %.1f%% too small", byCond["60Mbps/80ms"].MeanReductionPct)
	}
	// Paper shape #2: at constant throughput, higher latency → bigger gains.
	if byCond["60Mbps/80ms"].MeanReductionPct <= byCond["60Mbps/10ms"].MeanReductionPct {
		t.Errorf("reduction at 80ms (%.1f%%) not larger than at 10ms (%.1f%%)",
			byCond["60Mbps/80ms"].MeanReductionPct, byCond["60Mbps/10ms"].MeanReductionPct)
	}
	// Paper shape #3: gains at 8 Mbps are smaller than at 60 Mbps for the
	// same latency-ish comparison (bandwidth-bound regime).
	if byCond["8Mbps/40ms"].MeanReductionPct >= byCond["60Mbps/80ms"].MeanReductionPct {
		t.Errorf("8Mbps reduction (%.1f%%) not smaller than 60Mbps/80ms (%.1f%%)",
			byCond["8Mbps/40ms"].MeanReductionPct, byCond["60Mbps/80ms"].MeanReductionPct)
	}
	if res.Table() == "" {
		t.Error("empty table")
	}
}

func TestRunHeadline(t *testing.T) {
	cfg := Config{
		Corpus: webgen.Params{Sites: 4, Seed: 1, Scale: 0.3},
		Grid:   []netsim.Conditions{Median5G()},
		Delays: []time.Duration{time.Hour},
	}
	res, err := RunHeadline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Median5GReduction == 0 {
		t.Fatal("5G median cell not found or zero")
	}
	if res.Median5GReduction < 5 {
		t.Errorf("5G median reduction %.1f%% implausibly small", res.Median5GReduction)
	}
	if !strings.Contains(res.Table(), "5G median") {
		t.Error("table missing headline")
	}
}

func TestRunBaselines(t *testing.T) {
	cfg := quickCfg()
	rows, err := RunBaselines(cfg, Median5G(), time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(AllSchemes) {
		t.Fatalf("rows = %d", len(rows))
	}
	byScheme := map[Scheme]BaselineRow{}
	for _, r := range rows {
		byScheme[r.Scheme] = r
	}
	conv := byScheme[SchemeConventional]
	cat := byScheme[SchemeCatalyst]
	push := byScheme[SchemeServerPush]
	rdr := byScheme[SchemeRDR]

	// §5 qualitative claims, at corpus scale:
	if cat.MeanWarmPLT >= conv.MeanWarmPLT {
		t.Errorf("catalyst warm PLT %v not better than conventional %v", cat.MeanWarmPLT, conv.MeanWarmPLT)
	}
	if push.MeanWarmBytes <= cat.MeanWarmBytes*2 {
		t.Errorf("push warm bytes %.0f not ≫ catalyst %.0f", push.MeanWarmBytes, cat.MeanWarmBytes)
	}
	if rdr.MeanColdPLT >= conv.MeanColdPLT {
		t.Errorf("RDR cold PLT %v not better than conventional %v", rdr.MeanColdPLT, conv.MeanColdPLT)
	}
	if rdr.MeanWarmBytes <= cat.MeanWarmBytes {
		t.Errorf("RDR warm bytes %.0f not larger than catalyst %.0f", rdr.MeanWarmBytes, cat.MeanWarmBytes)
	}
	if BaselineTable(rows, time.Hour) == "" {
		t.Error("empty baseline table")
	}
}

func TestRunHeaderOverhead(t *testing.T) {
	cfg := quickCfg()
	res, err := RunHeaderOverhead(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.MeanEntries <= 0 || res.MeanMapBytes <= 0 {
		t.Fatalf("overhead result empty: %+v", res)
	}
	if res.OverheadFraction <= 0 || res.OverheadFraction >= 0.5 {
		t.Fatalf("overhead fraction %.2f implausible", res.OverheadFraction)
	}
	if res.Table() == "" {
		t.Error("empty table")
	}
}

func TestRunCoverage(t *testing.T) {
	cfg := quickCfg()
	rows, err := RunCoverage(cfg, Median5G())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	static, record, full := rows[0], rows[1], rows[2]
	if static.Scheme != SchemeCatalyst || record.Scheme != SchemeCatalystRecord || full.Scheme != SchemeCatalystFull {
		t.Fatalf("row order: %v, %v, %v", static.Scheme, record.Scheme, full.Scheme)
	}
	// Recording must strictly improve coverage (it adds JS-discovered
	// resources to the map).
	if record.CoveredFraction <= static.CoveredFraction {
		t.Errorf("recording coverage %.2f not better than static %.2f",
			record.CoveredFraction, static.CoveredFraction)
	}
	// Recording mode covers all same-origin subresources on an unchanged
	// revisit; the remainder is no-store content and cross-origin (CDN)
	// resources the recorder never sees.
	if record.CoveredFraction < 0.80 {
		t.Errorf("recording coverage %.2f too low", record.CoveredFraction)
	}
	// The cross-origin extension covers CDN resources too, so on an
	// unchanged revisit coverage must reach (nearly) everything except
	// no-store content.
	if full.CoveredFraction < record.CoveredFraction {
		t.Errorf("cross-origin coverage %.2f below recording %.2f",
			full.CoveredFraction, record.CoveredFraction)
	}
	if CoverageTable(rows) == "" {
		t.Error("empty table")
	}
}

// TestColdLoadParity checks the deployment-safety claim implicit in the
// paper: enabling CacheCatalyst must not penalize first visits. The only
// cold-load costs are the X-Etag-Config header and the registration
// snippet, both small; cold PLT must stay within 3% of the conventional
// baseline.
func TestColdLoadParity(t *testing.T) {
	cfg := quickCfg()
	cond := Median5G()
	for siteIdx := 0; siteIdx < cfg.Corpus.Sites; siteIdx++ {
		conv := NewWorld(cfg.Corpus, siteIdx, SchemeConventional, cfg.Transport)
		cat := NewWorld(cfg.Corpus, siteIdx, SchemeCatalyst, cfg.Transport)
		rConv, err := conv.Load(cond)
		if err != nil {
			t.Fatal(err)
		}
		rCat, err := cat.Load(cond)
		if err != nil {
			t.Fatal(err)
		}
		ratio := float64(rCat.PLT) / float64(rConv.PLT)
		if ratio > 1.03 {
			t.Errorf("site %d: catalyst cold PLT %v is %.1f%% worse than conventional %v",
				siteIdx, rCat.PLT, (ratio-1)*100, rConv.PLT)
		}
	}
}

func TestRunCrossPage(t *testing.T) {
	cfg := quickCfg()
	rows, err := RunCrossPage(cfg, Median5G())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	conv, cat := rows[0], rows[1]
	// Right after a cold homepage load nothing has changed, so the
	// catalyst client reuses every shared template asset with zero round
	// trips; the conventional client revalidates the no-cache ones.
	if cat.MeanSecondPagePLT >= conv.MeanSecondPagePLT {
		t.Errorf("catalyst 2nd-page PLT %v not better than conventional %v",
			cat.MeanSecondPagePLT, conv.MeanSecondPagePLT)
	}
	if cat.MeanSecondPageRequests >= conv.MeanSecondPageRequests {
		t.Errorf("catalyst 2nd-page requests %.1f not fewer than conventional %.1f",
			cat.MeanSecondPageRequests, conv.MeanSecondPageRequests)
	}
	if CrossPageTable(rows) == "" {
		t.Error("empty table")
	}
}

// TestSweepDeterministic guards against nondeterminism leaking in through
// goroutine scheduling, map iteration, or hidden randomness: at any
// parallelism the same configuration must produce deep-equal results, every
// mean bit for bit — floating-point sums depend on their order, so trials are
// folded in index order, not in the order workers finish them. Both sweeps
// run one job per site, every (condition, scheme) trial of it on views of
// one generated site, so the check covers the scheme matrix too.
func TestSweepDeterministic(t *testing.T) {
	cfg := Config{
		Corpus:      webgen.Params{Sites: 6, Seed: 11, Scale: 0.3},
		Grid:        []netsim.Conditions{Median5G(), {RTT: 100 * time.Millisecond, DownlinkBps: 10e6}},
		Delays:      []time.Duration{time.Hour, 24 * time.Hour},
		Parallelism: 1,
	}
	want, err := RunFig3(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Parallelism = 4
	for run := 0; run < 5; run++ {
		got, err := RunFig3(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("run %d: -parallel 4 differs from -parallel 1:\n%+v\n%+v", run, got, want)
		}
	}

	cfg.Parallelism = 1
	wantM, err := RunSchemeMatrixContext(context.Background(), cfg, MatrixSchemes)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Parallelism = 4
	for run := 0; run < 2; run++ {
		got, err := RunSchemeMatrixContext(context.Background(), cfg, MatrixSchemes)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, wantM) {
			t.Fatalf("matrix run %d: -parallel 4 differs from -parallel 1:\n%+v\n%+v", run, got, wantM)
		}
	}
}

func TestConfigValidate(t *testing.T) {
	cfg := quickCfg()
	cfg.Grid = nil
	if _, err := RunFig3(cfg); err == nil {
		t.Error("empty grid accepted")
	}
	cfg = quickCfg()
	cfg.Delays = []time.Duration{time.Hour, time.Hour}
	if _, err := RunFig3(cfg); err == nil {
		t.Error("non-increasing delays accepted")
	}
	cfg = quickCfg()
	cfg.Delays = nil
	if _, err := RunFig3(cfg); err == nil {
		t.Error("empty delays accepted")
	}
}

func TestSchemeStrings(t *testing.T) {
	for s, want := range map[Scheme]string{
		SchemeConventional: "conventional", SchemeCatalyst: "catalyst",
		SchemeCatalystRecord: "catalyst+record", SchemeCatalystFull: "catalyst+record+xo",
		SchemeServerPush: "server-push",
		SchemeRDR:        "rdr-proxy", Scheme(99): "unknown",
	} {
		if got := s.String(); got != want {
			t.Errorf("Scheme(%d) = %q, want %q", s, got, want)
		}
	}
}

func TestShortDur(t *testing.T) {
	for d, want := range map[time.Duration]string{
		time.Minute:        "1m",
		time.Hour:          "1h",
		6 * time.Hour:      "6h",
		24 * time.Hour:     "1d",
		7 * 24 * time.Hour: "1w",
		90 * time.Second:   "1m30s",
	} {
		if got := shortDur(d); got != want {
			t.Errorf("shortDur(%v) = %q, want %q", d, got, want)
		}
	}
}
