// Command timeline prints Figure-1-style fetch waterfalls for the paper's
// running example (index.html, a.css, b.js, c.js, d.jpg):
//
//	(a) the first visit,
//	(b) a conventional revisit two hours later, and
//	(c) the CacheCatalyst revisit (with recording enabled, so even the
//	    JS-discovered resources need no round trip).
//
// Bars are drawn in virtual time under the network conditions given by
// -rtt and -mbps.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"cachecatalyst/catalyst"
	"cachecatalyst/internal/browser"
	"cachecatalyst/internal/netsim"
	"cachecatalyst/internal/server"
	"cachecatalyst/internal/trace"
	"cachecatalyst/internal/vclock"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command: it parses args, prints the three waterfalls to
// stdout (and writes the HAR files, if asked), reports errors to stderr,
// and returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("timeline", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		rttMS  = fs.Int("rtt", 40, "round-trip time in milliseconds")
		mbps   = fs.Float64("mbps", 60, "downlink throughput in Mbit/s")
		harDir = fs.String("har", "", "also write one HAR file per panel into this directory")
	)
	if err := fs.Parse(args); errors.Is(err, flag.ErrHelp) {
		return 0
	} else if err != nil {
		return 2
	}
	cond := netsim.Conditions{
		RTT:         time.Duration(*rttMS) * time.Millisecond,
		DownlinkBps: *mbps * 1e6,
	}
	if err := figure1(panels{out: stdout, harDir: *harDir}, cond); err != nil {
		fmt.Fprintf(stderr, "timeline: %v\n", err)
		return 1
	}
	return 0
}

// figure1 prints the three panels of Figure 1 under cond.
func figure1(p panels, cond netsim.Conditions) error {
	if p.harDir != "" {
		if err := os.MkdirAll(p.harDir, 0o755); err != nil {
			return err
		}
	}
	fmt.Fprintf(p.out, "Figure 1 example page under %s\n\n", cond)

	// (a) First visit, conventional.
	clockA := vclock.NewVirtual(vclock.Epoch)
	worldA := makeWorld(clockA, false)
	browserA := browser.New(clockA, browser.Conventional, netsim.TransportOptions{})
	fmt.Fprintln(p.out, "(a) first visit (cold cache)")
	if err := p.waterfall("fig1a", browserA, worldA, clockA, cond); err != nil {
		return err
	}

	// (b) Conventional revisit two hours later; d.jpg has changed.
	clockA.Advance(2 * time.Hour)
	changeDJPG(worldA.content)
	fmt.Fprintln(p.out, "(b) conventional revisit (+2h; d.jpg changed)")
	if err := p.waterfall("fig1b", browserA, worldA, clockA, cond); err != nil {
		return err
	}

	// (c) Catalyst revisit: cold load first to warm the SW, then revisit.
	clockC := vclock.NewVirtual(vclock.Epoch)
	worldC := makeWorld(clockC, true)
	browserC := browser.New(clockC, browser.Catalyst, netsim.TransportOptions{})
	if _, err := browserC.Load(worldC.origins, cond, host, "/index.html"); err != nil {
		return fmt.Errorf("fig1c cold load: %w", err)
	}
	clockC.Advance(2 * time.Hour)
	changeDJPG(worldC.content)
	fmt.Fprintln(p.out, "(c) CacheCatalyst revisit (+2h; d.jpg changed)")
	return p.waterfall("fig1c", browserC, worldC, clockC, cond)
}

// panels is where the waterfalls go: the printed bars, and the optional HAR
// output directory (empty = none).
type panels struct {
	out    io.Writer
	harDir string
}

const host = "site.example"

type world struct {
	content *server.MemContent
	origins browser.OriginMap
}

func makeWorld(clock vclock.Clock, decorated bool) *world {
	c := server.NewMemContent()
	week := server.CachePolicy{MaxAge: 7 * 24 * time.Hour, HasMaxAge: true}
	c.SetBody("/index.html",
		`<html><head><link rel="stylesheet" href="/a.css"><script src="/b.js"></script></head><body>content</body></html>`,
		server.CachePolicy{NoCache: true})
	c.SetBody("/a.css", "body { margin: 0 }", week)
	c.SetBody("/b.js", "//@fetch /c.js\n", server.CachePolicy{NoCache: true})
	c.SetBody("/c.js", "//@fetch /d.jpg\n", week)
	c.SetBody("/d.jpg", "JPEG-VERSION-1", server.CachePolicy{MaxAge: time.Hour, HasMaxAge: true})
	srv := server.New(c, server.Options{Record: decorated, Clock: clock, ServerTiming: true})
	front := http.Handler(srv)
	if decorated {
		front = catalyst.Middleware(srv, catalyst.MiddlewareOptions{})
	}
	return &world{content: c, origins: browser.OriginMap{host: server.NewOrigin(front)}}
}

func changeDJPG(c *server.MemContent) {
	c.SetBody("/d.jpg", "JPEG-VERSION-2-CHANGED", server.CachePolicy{MaxAge: time.Hour, HasMaxAge: true})
}

func (p panels) waterfall(name string, b *browser.Browser, w *world, clock vclock.Clock, cond netsim.Conditions) error {
	var events []browser.FetchEvent
	col := trace.NewCollector(clock.Now())
	b.OnFetch = func(ev browser.FetchEvent) {
		events = append(events, ev)
		col.Record(ev)
	}
	res, err := b.Load(w.origins, cond, host, "/index.html")
	b.OnFetch = nil
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	if p.harDir != "" {
		har := col.HAR("https://"+host+"/index.html", res.PLT)
		data, err := har.Marshal()
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		path := filepath.Join(p.harDir, name+".har")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(p.out, "  (wrote %s)\n", path)
	}

	sort.Slice(events, func(i, j int) bool {
		if events[i].Start != events[j].Start {
			return events[i].Start < events[j].Start
		}
		return events[i].Path < events[j].Path
	})
	const width = 48
	scale := float64(width) / float64(res.PLT)
	for _, ev := range events {
		bar := renderBar(ev, scale, width)
		label := ev.Source
		if ev.Revalidated {
			label = "304"
		}
		if len(ev.Decisions) > 0 {
			label += "  [" + strings.Join(ev.Decisions, " ") + "]"
		}
		fmt.Fprintf(p.out, "  %-12s |%s| %6.1fms  %s\n", strings.TrimPrefix(ev.Path, "/"), bar,
			float64(ev.End.Microseconds())/1000, label)
	}
	fmt.Fprintf(p.out, "  PLT = %.1fms  (requests=%d local=%d bytes=%d)\n\n",
		float64(res.PLT.Microseconds())/1000, res.NetworkRequests, res.LocalHits, res.BytesDown)
	return nil
}

func renderBar(ev browser.FetchEvent, scale float64, width int) string {
	start := int(float64(ev.Start) * scale)
	end := int(float64(ev.End) * scale)
	if end >= width {
		end = width - 1
	}
	if start > end {
		start = end
	}
	bar := make([]byte, width)
	for i := range bar {
		bar[i] = ' '
	}
	if ev.Start == ev.End {
		bar[start] = '*' // zero-RTT local delivery
	} else {
		for i := start; i <= end; i++ {
			bar[i] = '='
		}
	}
	return string(bar)
}
