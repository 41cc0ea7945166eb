package catalyst

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"
)

// discardWriter is the cheapest possible ResponseWriter, so the benchmarks
// measure middleware overhead rather than recorder bookkeeping.
type discardWriter struct {
	h http.Header
}

func (d *discardWriter) Header() http.Header         { return d.h }
func (d *discardWriter) WriteHeader(int)             {}
func (d *discardWriter) Write(b []byte) (int, error) { return len(b), nil }
func (d *discardWriter) Flush()                      {}

func staticAsset(size int) http.Handler {
	body := []byte(strings.Repeat("0123456789abcdef", size/16))
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/octet-stream")
		_, _ = w.Write(body)
	})
}

func benchStatic(b *testing.B, h http.Handler, size int) {
	b.SetBytes(int64(size))
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			req := httptest.NewRequest("GET", "/blob", nil)
			h.ServeHTTP(&discardWriter{h: make(http.Header)}, req)
		}
	})
}

// BenchmarkMiddlewareStatic measures the streaming sniffWriter hot path on
// a 64 KiB static asset. The sub-benchmark keeps the name it had beside the
// deleted record-then-replay baseline so BENCH_*.json trajectories line up.
func BenchmarkMiddlewareStatic(b *testing.B) {
	const size = 64 << 10
	b.Run("Streaming", func(b *testing.B) {
		benchStatic(b, Middleware(staticAsset(size), MiddlewareOptions{}), size)
	})
}

// BenchmarkMiddlewareHTML measures the buffered map-building path, which
// both schemes share; it bounds the regression risk of the rewrite on the
// HTML side.
func BenchmarkMiddlewareHTML(b *testing.B) {
	h := tuned(innerSite(), MiddlewareOptions{}, withProbeTTL(time.Hour))
	// Warm the probe cache once so the benchmark measures the steady state.
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/", nil))
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			h.ServeHTTP(&discardWriter{h: make(http.Header)}, httptest.NewRequest("GET", "/", nil))
		}
	})
}

// BenchmarkProbeContention renders one page from many goroutines with a
// probe TTL so short every render wants a re-probe: the singleflight layer
// determines how many inner-handler probes actually run.
func BenchmarkProbeContention(b *testing.B) {
	h := tuned(innerSite(), MiddlewareOptions{}, withProbeTTL(100*time.Microsecond))
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			h.ServeHTTP(&discardWriter{h: make(http.Header)}, httptest.NewRequest("GET", "/", nil))
		}
	})
}

// site50 is an inner handler serving one HTML page with ~50 same-origin
// subresources (a handful of stylesheets that each pull in a background
// image, the rest plain assets) — the cold-page shape from the paper's
// motivating example. Non-HTML responses sleep for delay, standing in for
// the inner handler's real per-request cost.
func site50(delay time.Duration) http.Handler {
	var page strings.Builder
	page.WriteString("<html><head>")
	for i := 0; i < 5; i++ {
		fmt.Fprintf(&page, `<link rel="stylesheet" href="/s%d.css">`, i)
	}
	page.WriteString("</head><body>")
	for i := 0; i < 45; i++ {
		fmt.Fprintf(&page, `<img src="/img/i%02d.png">`, i)
	}
	page.WriteString("</body></html>")
	html := page.String()

	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/" {
			w.Header().Set("Content-Type", "text/html; charset=utf-8")
			_, _ = io.WriteString(w, html)
			return
		}
		if delay > 0 {
			time.Sleep(delay)
		}
		if strings.HasSuffix(r.URL.Path, ".css") {
			w.Header().Set("Content-Type", "text/css")
			fmt.Fprintf(w, ".x { background: url(/bg%s.png) }", r.URL.Path[2:3])
			return
		}
		w.Header().Set("Content-Type", "image/png")
		_, _ = io.WriteString(w, r.URL.Path)
	})
}

// BenchmarkMiddlewareHTML50 measures the steady state the render cache
// exists for: a hot, unchanged ~50-subresource page whose probes are all
// fresh. RenderCache is the shipping configuration; NoRenderCache disables
// the cache (MaxRenderBytes < 0), paying tokenizer + injection + body hash +
// map serialization per request. The tentpole acceptance bar is ≥3×
// ops/sec for RenchmarkCache over NoRenderCache.
func BenchmarkMiddlewareHTML50(b *testing.B) {
	bench := func(b *testing.B, opts MiddlewareOptions) {
		h := tuned(site50(0), opts, withProbeTTL(time.Hour))
		// Two warm-up renders: the first fills the probe and render caches
		// and slots the map, which the second already reuses.
		h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/", nil))
		h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/", nil))
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				h.ServeHTTP(&discardWriter{h: make(http.Header)}, httptest.NewRequest("GET", "/", nil))
			}
		})
	}
	b.Run("RenderCache", func(b *testing.B) { bench(b, MiddlewareOptions{}) })
	b.Run("NoRenderCache", func(b *testing.B) { bench(b, MiddlewareOptions{MaxRenderBytes: -1}) })
	// Gated is RenderCache plus admission control at catalystd's default
	// capacity — the overload PR's acceptance bar is the gate costing <3%
	// on this hot path.
	b.Run("Gated", func(b *testing.B) { bench(b, MiddlewareOptions{MaxInflight: 256}) })
}

// BenchmarkMiddlewareWarmHit isolates the middleware's own warm-hit cost:
// request and writer are reused across iterations, so — unlike HTML50,
// whose figures include ~2.4µs of httptest request construction per op —
// what remains is the serve itself. The tentpole bar is ≤1 alloc/op here:
// a fully-warm unchanged page runs the render-cache memcmp, reuses the cached
// encoding, writes precomputed headers, and acquires no mutex (see
// TestWarmGetTakesNoMutex in internal/cachestore for the store-level proof).
func BenchmarkMiddlewareWarmHit(b *testing.B) {
	h := tuned(site50(0), MiddlewareOptions{}, withProbeTTL(time.Hour))
	// Warm: the first request fills the probe and render caches and slots
	// the map, which the second already reuses.
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/", nil))
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/", nil))
	req := httptest.NewRequest("GET", "/", nil)
	w := &discardWriter{h: make(http.Header)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.ServeHTTP(w, req)
	}
}

// BenchmarkMiddlewareHTMLCold measures the first render of a ~50-subresource
// page when every probe must actually run against an inner handler that
// costs ~100µs per request — the cold-page latency the resolve fan-out
// attacks. Each iteration uses a fresh middleware so nothing is cached;
// Parallel uses the frozen fan-out, Sequential pins probeConcurrency to 1
// (the pre-fan-out behaviour, roughly sum(probe) vs max(probe)).
func BenchmarkMiddlewareHTMLCold(b *testing.B) {
	const probeCost = 100 * time.Microsecond
	bench := func(b *testing.B, concurrency int) {
		inner := site50(probeCost)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			h := tuned(inner, MiddlewareOptions{}, withProbeTTL(time.Hour), withProbeConcurrency(concurrency))
			h.ServeHTTP(&discardWriter{h: make(http.Header)}, httptest.NewRequest("GET", "/", nil))
		}
	}
	b.Run("Parallel", func(b *testing.B) { bench(b, probeConcurrency) })
	b.Run("Sequential", func(b *testing.B) { bench(b, 1) })
}

// churnPage is the benchmark's page_churn page shape as an inner handler: one
// page with 40 references — 4 stylesheets of 6 KB, 12 scripts of 4 KB, 24
// images of 3 KB — every response tagged and If-None-Match honoured, the way
// the bench origin (and any static file server) answers. The page body is
// padded with text to pageBytes (the benchmark's pages are 40 KB); 0 leaves
// it at its ≈ 1.5 KB of markup.
func churnPage(pageBytes int) http.Handler {
	mux := http.NewServeMux()
	var page strings.Builder
	page.WriteString("<html><head>")
	asset := func(path, contentType string, size int) {
		filler := "/* " + path + " */ "
		handleTagged(mux, path, contentType, strings.Repeat(filler, size/len(filler)))
	}
	for i := 0; i < 4; i++ {
		fmt.Fprintf(&page, `<link rel="stylesheet" href="/s%d.css">`, i)
		asset(fmt.Sprintf("/s%d.css", i), "text/css", 6<<10)
	}
	for i := 0; i < 12; i++ {
		fmt.Fprintf(&page, `<script src="/j%02d.js"></script>`, i)
		asset(fmt.Sprintf("/j%02d.js", i), "text/javascript", 4<<10)
	}
	page.WriteString("</head><body>")
	for i := 0; i < 24; i++ {
		fmt.Fprintf(&page, `<img src="/i%02d.png">`, i)
		asset(fmt.Sprintf("/i%02d.png", i), "image/png", 3<<10)
	}
	if pad := pageBytes - page.Len(); pad > 0 {
		fmt.Fprintf(&page, "<p>%s</p>", strings.Repeat("x", pad))
	}
	page.WriteString("</body></html>")
	handleTagged(mux, "/{$}", "text/html; charset=utf-8", page.String())
	return mux
}

// BenchmarkMiddlewareProbeRefresh measures a navigation that finds every
// probe expired: the page is unchanged (render cache hit), so what an
// iteration costs is one page fetch plus a re-probe of all 40 references.
// InProcess calls the handler directly; Upstream reaches the same handler
// the way catalystd -origin does, through NewUpstream over loopback —
// where a probe also costs a round trip, and before revalidation and the
// connection pool a body copy and, mostly, a connect.
func BenchmarkMiddlewareProbeRefresh(b *testing.B) {
	bench := func(b *testing.B, inner http.Handler) {
		// One nanosecond: every probe has expired by the time it is read back.
		h := tuned(inner, MiddlewareOptions{}, withProbeTTL(time.Nanosecond))
		req := httptest.NewRequest("GET", "/", nil)
		w := &discardWriter{h: make(http.Header)}
		h.ServeHTTP(w, req)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			h.ServeHTTP(w, req)
		}
	}
	b.Run("InProcess", func(b *testing.B) { bench(b, churnPage(0)) })
	b.Run("Upstream", func(b *testing.B) { benchUpstream(b, churnPage(0), bench) })
}

// benchUpstream runs bench against site served over loopback behind
// NewUpstream, the way catalystd -origin reaches its origin.
func benchUpstream(b *testing.B, site http.Handler, bench func(*testing.B, http.Handler)) {
	origin := httptest.NewServer(site)
	defer origin.Close()
	u, err := url.Parse(origin.URL)
	if err != nil {
		b.Fatal(err)
	}
	proxy, _, stop := NewUpstream(u, "bench.", 0, nil)
	defer stop()
	bench(b, proxy)
}

// BenchmarkMiddlewarePageRevalidate measures a navigation of an unchanged
// 40 KB page the render cache holds, every probe fresh and the encoding
// reusable: one conditional page fetch answered 304, and the held render
// served. InProcess and Upstream as in ProbeRefresh; over loopback the 304 is
// what replaces the page body's copy through the proxy and the sniffing
// writer.
func BenchmarkMiddlewarePageRevalidate(b *testing.B) {
	bench := func(b *testing.B, inner http.Handler) {
		h := tuned(inner, MiddlewareOptions{}, withProbeTTL(time.Hour))
		req := httptest.NewRequest("GET", "/", nil)
		w := &discardWriter{h: make(http.Header)}
		for i := 0; i < 3; i++ {
			h.ServeHTTP(w, req)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			h.ServeHTTP(w, req)
		}
	}
	b.Run("InProcess", func(b *testing.B) { bench(b, churnPage(40<<10)) })
	b.Run("Upstream", func(b *testing.B) { benchUpstream(b, churnPage(40<<10), bench) })
}

// BenchmarkMiddlewareWarmResolve measures the resolve a page_churn navigation
// pays when its slotted map does not verify: the page shape of churnPage,
// every probe fresh in the probe cache, and the page's slot emptied each
// iteration, so every serve re-walks 40 probe-cache hits and re-encodes the
// map.
func BenchmarkMiddlewareWarmResolve(b *testing.B) {
	h := tuned(churnPage(0), MiddlewareOptions{}, withProbeTTL(time.Hour))
	m := h.(*middleware)
	req := httptest.NewRequest("GET", "/", nil)
	w := &discardWriter{h: make(http.Header)}
	h.ServeHTTP(w, req)
	h.ServeHTTP(w, req)
	ent, _ := m.def.renders.Peek("/")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ent.slot.Store(nil)
		h.ServeHTTP(w, req)
	}
}
