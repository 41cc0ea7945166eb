// Command webgen materializes the synthetic site corpus to disk, so the
// generated sites can be served by catalystd (or any web server) and
// inspected by hand.
//
//	webgen -out ./corpus -sites 5 -seed 1
//
// Each site lands in <out>/siteNNN.example/ with its homepage at
// index.html; cross-origin resources land in <out>/cdn.siteNNN.example/.
// A MANIFEST.txt per site lists every resource with its size and cache
// policy.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"cachecatalyst/internal/server"
	"cachecatalyst/internal/vclock"
	"cachecatalyst/internal/webgen"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command: it parses args, writes the corpus under -out, prints
// one line per site and a total to stdout and diagnostics to stderr, and
// returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("webgen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		out   = fs.String("out", "./corpus", "output directory")
		sites = fs.Int("sites", 5, "number of sites")
		seed  = fs.Int64("seed", 1, "corpus seed")
		scale = fs.Float64("scale", 1.0, "per-page resource scale")
	)
	if err := fs.Parse(args); errors.Is(err, flag.ErrHelp) {
		return 0
	} else if err != nil {
		return 2
	}

	clock := vclock.NewVirtual(vclock.Epoch)
	corpus := webgen.Generate(webgen.Params{Sites: *sites, Seed: *seed, Scale: *scale}, clock)

	var total int64
	for _, site := range corpus.Sites {
		for _, pair := range []struct {
			host    string
			content server.Content
		}{
			{site.Host, site.Content()},
			{site.CDNHost, site.CDNContent()},
		} {
			paths := pair.content.Paths()
			if len(paths) == 0 {
				continue
			}
			root := filepath.Join(*out, pair.host)
			manifest, err := writeSite(root, pair.content, paths)
			if err != nil {
				fmt.Fprintf(stderr, "webgen: %s: %v\n", pair.host, err)
				return 1
			}
			total += manifest
		}
		fmt.Fprintf(stdout, "%s: %d resources, %.1f KB\n", site.Host, site.NumResources(), float64(site.TotalBytes())/1024)
	}
	fmt.Fprintf(stdout, "wrote %d sites (%.1f MB) under %s\n", len(corpus.Sites), float64(total)/1e6, *out)
	return 0
}

// writeSite writes each resource body under root, returning bytes written.
func writeSite(root string, content server.Content, paths []string) (int64, error) {
	var manifest []byte
	var total int64
	for _, p := range paths {
		res, ok := content.Get(p)
		if !ok {
			continue
		}
		// Strip query strings for the filesystem form.
		fsPath := p
		if i := strings.IndexByte(fsPath, '?'); i >= 0 {
			fsPath = fsPath[:i]
		}
		full := filepath.Join(root, filepath.FromSlash(fsPath))
		if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
			return 0, err
		}
		if err := os.WriteFile(full, res.Body, 0o644); err != nil {
			return 0, err
		}
		total += int64(len(res.Body))
		line := fmt.Sprintf("%s\t%d bytes\tETag=%s\tCache-Control=%q\n",
			p, len(res.Body), res.ETag, res.Policy.CacheControl())
		manifest = append(manifest, line...)
	}
	if err := os.WriteFile(filepath.Join(root, "MANIFEST.txt"), manifest, 0o644); err != nil {
		return 0, err
	}
	return total, nil
}
