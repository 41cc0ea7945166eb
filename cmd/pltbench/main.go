// Command pltbench regenerates the paper's evaluation numbers.
//
// Each experiment prints the rows/series behind one of the paper's figures
// or claims (see DESIGN.md's experiment index):
//
//	pltbench -experiment fig3       # Figure 3: PLT reduction over the network grid
//	pltbench -experiment headline   # the abstract's ~30% average claim
//	pltbench -experiment corpus     # §2 workload-model calibration statistics
//	pltbench -experiment baselines  # §5: catalyst vs Server-Push vs RDR proxy
//	pltbench -experiment overhead   # ablation: X-Etag-Config header cost
//	pltbench -experiment coverage   # ablation: static map vs recording mode
//	pltbench -experiment crosspage  # §1 intra-site navigation reuse
//	pltbench -experiment all        # everything, in the order above
//
// -h2 and -mobile rerun any of them under HTTP/2 multiplexing or with the
// mobile corpus profile (the H2 and device-profile ablations).
//
// The default corpus is a fast subset; pass -full for the paper's scale
// (100 sites, full grid, all five revisit delays).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"cachecatalyst/internal/harness"
	"cachecatalyst/internal/vclock"
	"cachecatalyst/internal/webgen"
)

// experiments is every experiment in the order -experiment all runs them.
// Each returns its table and the value -json encodes.
var experiments = []struct {
	name string
	run  func(cfg harness.Config, treat harness.Scheme) (table string, v any, err error)
}{
	{"corpus", func(cfg harness.Config, _ harness.Scheme) (string, any, error) {
		st := webgen.Generate(cfg.Corpus, vclock.NewVirtual(vclock.Epoch)).Stats(cfg.Delays)
		return st.String(), st, nil
	}},
	{"fig3", func(cfg harness.Config, treat harness.Scheme) (string, any, error) {
		res, err := harness.RunPairedSweep(cfg, harness.SchemeConventional, treat)
		if err != nil {
			return "", nil, err
		}
		return res.Table(), res, nil
	}},
	{"headline", func(cfg harness.Config, _ harness.Scheme) (string, any, error) {
		res, err := harness.RunHeadline(cfg)
		if err != nil {
			return "", nil, err
		}
		return res.Table(), res, nil
	}},
	{"baselines", func(cfg harness.Config, _ harness.Scheme) (string, any, error) {
		rows, err := harness.RunBaselines(cfg, harness.Median5G(), time.Hour)
		return harness.BaselineTable(rows, time.Hour), rows, err
	}},
	{"overhead", func(cfg harness.Config, _ harness.Scheme) (string, any, error) {
		res, err := harness.RunHeaderOverhead(cfg)
		if err != nil {
			return "", nil, err
		}
		return res.Table(), res, nil
	}},
	{"coverage", func(cfg harness.Config, _ harness.Scheme) (string, any, error) {
		rows, err := harness.RunCoverage(cfg, harness.Median5G())
		return harness.CoverageTable(rows), rows, err
	}},
	{"crosspage", func(cfg harness.Config, _ harness.Scheme) (string, any, error) {
		rows, err := harness.RunCrossPage(cfg, harness.Median5G())
		return harness.CrossPageTable(rows), rows, err
	}},
}

func main() {
	names := make([]string, 0, len(experiments)+1)
	for _, e := range experiments {
		names = append(names, e.name)
	}
	var (
		experiment = flag.String("experiment", "all", strings.Join(append(names, "all"), " | "))
		full       = flag.Bool("full", false, "paper scale: 100 sites, full grid, all delays")
		sites      = flag.Int("sites", 0, "override corpus size")
		scale      = flag.Float64("scale", 0, "override per-page resource scale")
		seed       = flag.Int64("seed", 1, "corpus seed")
		h2         = flag.Bool("h2", false, "use HTTP/2 multiplexing instead of 6 HTTP/1.1 connections")
		parallel   = flag.Int("parallel", 0, "measurement parallelism (0 = GOMAXPROCS)")
		mobile     = flag.Bool("mobile", false, "use the mobile corpus profile")
		treatment  = flag.String("treatment", "catalyst", "scheme measured against the conventional baseline in fig3/headline: catalyst | record | full | push | rdr")
		asJSON     = flag.Bool("json", false, "emit machine-readable JSON instead of tables")
	)
	flag.Parse()

	cfg := harness.DefaultConfig()
	if !*full {
		cfg.Corpus.Sites = 20
		cfg.Corpus.Scale = 0.6
		cfg.Delays = []time.Duration{time.Minute, time.Hour, 24 * time.Hour}
	}
	if *sites > 0 {
		cfg.Corpus.Sites = *sites
	}
	if *scale > 0 {
		cfg.Corpus.Scale = *scale
	}
	cfg.Corpus.Seed = *seed
	cfg.Transport.H2 = *h2
	cfg.Parallelism = *parallel
	if *mobile {
		cfg.Corpus.Profile = webgen.ProfileMobile
	}
	treatScheme, ok := map[string]harness.Scheme{
		"catalyst": harness.SchemeCatalyst,
		"record":   harness.SchemeCatalystRecord,
		"full":     harness.SchemeCatalystFull,
		"push":     harness.SchemeServerPush,
		"rdr":      harness.SchemeRDR,
	}[*treatment]
	if !ok {
		fmt.Fprintf(os.Stderr, "pltbench: unknown treatment %q\n", *treatment)
		os.Exit(2)
	}

	emit := func(table string, v any) error {
		if *asJSON {
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			return enc.Encode(v)
		}
		fmt.Print(table)
		return nil
	}

	ran := false
	for _, e := range experiments {
		if *experiment != e.name && *experiment != "all" {
			continue
		}
		ran = true
		if !*asJSON {
			fmt.Printf("=== %s ===\n", e.name)
		}
		table, v, err := e.run(cfg, treatScheme)
		if err == nil {
			err = emit(table, v)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "pltbench: %s: %v\n", e.name, err)
			os.Exit(1)
		}
		fmt.Println()
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "pltbench: unknown experiment %q\n", *experiment)
		flag.Usage()
		os.Exit(2)
	}
}
