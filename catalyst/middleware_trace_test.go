package catalyst

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"cachecatalyst/internal/browser"
	"cachecatalyst/internal/etag"
	"cachecatalyst/internal/netsim"
	"cachecatalyst/internal/server"
	"cachecatalyst/internal/telemetry"
	"cachecatalyst/internal/vclock"
)

// taggedInnerSite is innerSite with validators: every response carries an
// ETag, the way an asset-serving app (or net/http's ServeContent) does.
// Subresource ETags are what let the Service Worker match the proactive
// map tokens on the retrofit path — the middleware streams subresources
// through untouched, so the inner handler's validator is the one clients
// cache.
func taggedInnerSite() http.Handler {
	mux := http.NewServeMux()
	serve := func(path, contentType, body string) { handleTagged(mux, path, contentType, body) }
	serve("/{$}", "text/html; charset=utf-8",
		`<html><head><link rel="stylesheet" href="/style.css"><script src="/app.js"></script></head><body><img src="/logo.png"></body></html>`)
	serve("/style.css", "text/css; charset=utf-8", `body { background: url(/bg.png); }`)
	serve("/app.js", "text/javascript; charset=utf-8", `console.log("app")`)
	serve("/logo.png", "image/png", "PNG-LOGO")
	serve("/bg.png", "image/png", "PNG-BG")
	return mux
}

// handleTagged registers body at path with a validator derived from it, and
// answers a matching If-None-Match with 304.
func handleTagged(mux *http.ServeMux, path, contentType, body string) {
	tag := etag.ForBytes([]byte(body)).String()
	mux.HandleFunc(path, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", contentType)
		w.Header().Set("Etag", tag)
		if r.Header.Get("If-None-Match") == tag {
			w.WriteHeader(http.StatusNotModified)
			return
		}
		_, _ = io.WriteString(w, body)
	})
}

// TestMiddlewareTraceEndToEnd drives the full retrofit stack through the
// simulator — emulated browser → Service Worker → Middleware → inner
// handler — and checks that the middleware's cache decisions come back to
// the browser through Server-Timing, annotated onto the fetch events, and
// that the middleware's instruments land in the shared registry.
func TestMiddlewareTraceEndToEnd(t *testing.T) {
	reg := telemetry.NewRegistry()
	h := Middleware(taggedInnerSite(), MiddlewareOptions{
		Telemetry:    reg,
		ServerTiming: true,
	})
	metrics := metricsOf(h)
	clock := vclock.NewVirtual(vclock.Epoch)
	origins := browser.OriginMap{"site.example": server.NewOrigin(h)}
	cond := netsim.Conditions{RTT: 40 * time.Millisecond, DownlinkBps: 60e6}
	b := browser.New(clock, browser.Catalyst, netsim.TransportOptions{}).WithTelemetry(reg)

	byPath := make(map[string][]string)
	b.OnFetch = func(ev browser.FetchEvent) { byPath[ev.Path] = ev.Decisions }
	if _, err := b.Load(origins, cond, "site.example", "/"); err != nil {
		t.Fatal(err)
	}
	if nav := strings.Join(byPath["/"], " "); !strings.Contains(nav, "origin:map-built") {
		t.Errorf("cold navigation decisions %q missing the middleware's origin:map-built", nav)
	}
	clock.Advance(2 * time.Hour)

	// The revisit finds the page's map slotted, every probe it names still
	// unexpired (the probe TTL runs on the wall clock), reuses it, and says so.
	// It is traced: a load records into its caller's trace only.
	byPath = make(map[string][]string)
	ctx, _ := telemetry.StartTrace(context.Background(), "")
	res, err := b.LoadContext(ctx, origins, cond, "site.example", "/")
	b.OnFetch = nil
	if err != nil {
		t.Fatal(err)
	}
	if nav := strings.Join(byPath["/"], " "); !strings.Contains(nav, "origin:map-reused") || strings.Contains(nav, "origin:map-built") {
		t.Errorf("warm navigation decisions %q, want origin:map-reused and no origin:map-built", nav)
	}
	if metrics.EncodeReuses.Load() != 1 {
		t.Errorf("EncodeReuses = %d, want 1", metrics.EncodeReuses.Load())
	}
	if res.LocalHits == 0 {
		t.Error("warm Catalyst revisit should have Service-Worker hits")
	}
	var sawSWHit bool
	for _, dec := range byPath {
		for _, d := range dec {
			if d == "sw-hit" {
				sawSWHit = true
			}
		}
	}
	if !sawSWHit {
		t.Errorf("no sw-hit decision among fetch events: %v", byPath)
	}
	if res.Trace == nil || len(res.Trace.Events()) == 0 {
		t.Fatal("load trace empty")
	}

	snap := reg.Snapshot()
	for _, name := range []string{
		"middleware.probes.hits", "middleware.panics_recovered",
		"browser.httpcache.hits", "sw.site.example.local_hits",
	} {
		if _, ok := snap.Counters[name]; !ok {
			t.Errorf("registry snapshot missing %q (have %d counters)", name, len(snap.Counters))
		}
	}
	if _, ok := snap.Histograms["middleware.html_ns"]; !ok {
		t.Error("registry snapshot missing middleware.html_ns histogram")
	}
	if snap.Counters["sw.site.example.local_hits"] == 0 {
		t.Error("sw local_hits counter did not move on the warm revisit")
	}
}

// TestMiddlewareTraceProbeRevalidated pins what a re-probe of unchanged
// content costs and says: a navigation after the probe TTL has run out asks the
// inner handler about each subresource with the tag it issued, every answer
// is a 304, the request's trace records one probe-revalidated event per
// path, and no probe body is fetched.
func TestMiddlewareTraceProbeRevalidated(t *testing.T) {
	const ttl = 10 * time.Millisecond
	h := tuned(taggedInnerSite(), MiddlewareOptions{}, withProbeTTL(ttl))
	metrics := metricsOf(h)
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/", nil))
	const paths = 4 // style.css, app.js, logo.png and the stylesheet's bg.png
	if got := metrics.ProbeFetched.Load(); got != paths {
		t.Fatalf("cold navigation: ProbeFetched = %d, want %d", got, paths)
	}
	time.Sleep(2 * ttl)

	ctx, tr := telemetry.StartTrace(context.Background(), "")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/", nil).WithContext(ctx))
	if m, err := DecodeMap(rec.Header().Get(HeaderName)); err != nil || len(m) != paths {
		t.Fatalf("re-probed navigation served %d map entries (err %v), want %d", len(m), err, paths)
	}
	revalidated := 0
	for _, ev := range tr.Events() {
		if ev.Name == "probe-revalidated" {
			revalidated++
		}
	}
	if revalidated != paths || metrics.ProbeRevalidated.Load() != paths {
		t.Errorf("probe-revalidated events = %d, ProbeRevalidated = %d, want %d of each",
			revalidated, metrics.ProbeRevalidated.Load(), paths)
	}
	if got := metrics.ProbeFetched.Load(); got != paths {
		t.Errorf("ProbeFetched moved to %d on a navigation over unchanged content, want it still %d", got, paths)
	}
}
