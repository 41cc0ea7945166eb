// Command schemes prints the scheme-matrix conformance table: five
// acceleration schemes — conventional caching, CacheCatalyst with and
// without recording, HTTP/2 Server Push and 103 Early Hints — crossed with
// a grid of network conditions.
//
//	schemes                  # the quick matrix behind EXPERIMENTS.md
//	schemes -sites 20        # more sites per cell
//	schemes -json            # machine-readable cells
//
// The default configuration is exactly harness.QuickMatrixConfig, so the
// output should match the committed golden table
// (internal/harness/testdata/scheme_matrix.golden) byte for byte.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"

	"cachecatalyst/internal/harness"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command: it parses args, runs the matrix, writes the table (or
// JSON) to stdout and diagnostics to stderr, and returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("schemes", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		sites    = fs.Int("sites", 0, "override corpus size (0 = quick-config default)")
		seed     = fs.Int64("seed", 0, "override corpus seed (0 = quick-config default)")
		parallel = fs.Int("parallel", 0, "measurement parallelism (0 = GOMAXPROCS)")
		h2       = fs.Bool("h2", false, "use HTTP/2 multiplexing instead of 6 HTTP/1.1 connections")
		asJSON   = fs.Bool("json", false, "emit machine-readable JSON instead of the table")
	)
	if err := fs.Parse(args); errors.Is(err, flag.ErrHelp) {
		return 0
	} else if err != nil {
		return 2
	}

	cfg := harness.QuickMatrixConfig()
	if *sites > 0 {
		cfg.Corpus.Sites = *sites
	}
	if *seed != 0 {
		cfg.Corpus.Seed = *seed
	}
	cfg.Transport.H2 = *h2
	cfg.Parallelism = *parallel

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	res, err := harness.RunSchemeMatrixContext(ctx, cfg, harness.MatrixSchemes)
	if err != nil {
		fmt.Fprintf(stderr, "schemes: %v\n", err)
		return 1
	}
	if *asJSON {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			fmt.Fprintf(stderr, "schemes: %v\n", err)
			return 1
		}
		return 0
	}
	fmt.Fprint(stdout, harness.MatrixTable(res))
	return 0
}
