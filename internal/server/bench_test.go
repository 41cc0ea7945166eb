package server_test

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"cachecatalyst/catalyst"
	"cachecatalyst/internal/server"
)

// nullWriter is the cheapest possible ResponseWriter, so benchmarks measure
// the handler rather than recorder bookkeeping. The header map is reused
// across iterations, matching net/http's per-connection reuse.
type nullWriter struct {
	h http.Header
}

func (d *nullWriter) Header() http.Header         { return d.h }
func (d *nullWriter) WriteHeader(int)             {}
func (d *nullWriter) Write(b []byte) (int, error) { return len(b), nil }

// decorated is the file server the way catalystd -dir serves it:
// catalyst.Middleware in front of a Server over c.
func decorated(c server.Content) http.Handler { return decoratedWith(c, catalyst.MiddlewareOptions{}) }

// decoratedWith is decorated with the middleware's options.
func decoratedWith(c server.Content, opts catalyst.MiddlewareOptions) http.Handler {
	return catalyst.Middleware(server.New(c, server.Options{}), opts)
}

// get serves one GET of path through h, with the given request headers.
func get(t *testing.T, h http.Handler, path string, hdr map[string]string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest("GET", path, nil)
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func benchContent() *server.MemContent {
	c := server.NewMemContent()
	c.SetBody("/", `<html><head><link rel="stylesheet" href="/s.css"></head>`+
		`<body><img src="/a.png"><img src="/b.png"></body></html>`,
		server.CachePolicy{NoCache: true})
	c.SetBody("/s.css", ".x { background: url(/bg.png) }", server.CachePolicy{HasMaxAge: true, MaxAge: 3600e9})
	for _, p := range []string{"/a.png", "/b.png", "/bg.png"} {
		c.SetBody(p, "png-bytes-"+p, server.CachePolicy{HasMaxAge: true, MaxAge: 3600e9})
	}
	return c
}

// siteContent is a page of the benchmark's page_warm shape: 40 references
// — 4 stylesheets of 5–40 KB with two url()s each, 12 scripts, 24 images —
// so a resolve is ≈ 50 Content lookups and four CSS parses, not the three
// lookups benchContent's page costs.
func siteContent() *server.MemContent {
	c := server.NewMemContent()
	static := server.CachePolicy{HasMaxAge: true, MaxAge: 3600e9}
	var page strings.Builder
	page.WriteString("<html><head>")
	for i, kb := range []int{5, 10, 20, 40} {
		fmt.Fprintf(&page, `<link rel="stylesheet" href="/css/s%d.css">`, i)
		var css strings.Builder
		fmt.Fprintf(&css, ".a%d { background: url(/img/bg%d.png) }\n@font-face { src: url(/font/f%d.woff2) }\n", i, i, i)
		for css.Len() < kb<<10 { // comment padding, as webgen pads its stylesheets
			css.WriteString("/* lorem ipsum dolor sit amet consectetur adipiscing elit sed do eiusmod tempor */\n")
		}
		c.SetBody(fmt.Sprintf("/css/s%d.css", i), css.String(), static)
		c.SetBody(fmt.Sprintf("/img/bg%d.png", i), fmt.Sprint("bg", i), static)
		c.SetBody(fmt.Sprintf("/font/f%d.woff2", i), fmt.Sprint("font", i), static)
	}
	for i := 0; i < 12; i++ {
		fmt.Fprintf(&page, `<script src="/js/a%d.js"></script>`, i)
		c.SetBody(fmt.Sprintf("/js/a%d.js", i), fmt.Sprint("js", i), static)
	}
	page.WriteString("</head><body>")
	for i := 0; i < 24; i++ {
		fmt.Fprintf(&page, `<img src="/img/i%d.png">`, i)
		c.SetBody(fmt.Sprintf("/img/i%d.png", i), fmt.Sprint("png", i), static)
	}
	page.WriteString("</body></html>")
	c.SetBody("/", page.String(), server.CachePolicy{NoCache: true})
	return c
}

// BenchmarkServeHTMLSite measures the catalyst HTML serve on a page of
// realistic fan-out, on both sides of the resolved-map slot: Reuse serves an
// unchanged site (verify the evidence, assign the shared header), Rebuild
// flips one image's validator before every request (resolve, re-parse the
// stylesheets, encode). The render cache hits in both.
func BenchmarkServeHTMLSite(b *testing.B) {
	run := func(b *testing.B, mutate func(c *server.MemContent, i int)) {
		c := siteContent()
		s := decorated(c)
		req := httptest.NewRequest("GET", "/", nil)
		w := &nullWriter{h: make(http.Header)}
		s.ServeHTTP(w, req)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			mutate(c, i)
			s.ServeHTTP(w, req)
		}
	}
	b.Run("Reuse", func(b *testing.B) { run(b, func(*server.MemContent, int) {}) })
	b.Run("Rebuild", func(b *testing.B) {
		var alt [2]*server.Resource
		for i := range alt {
			alt[i] = &server.Resource{Body: []byte(fmt.Sprint("png-v", i)), ContentType: "image/png"}
		}
		run(b, func(c *server.MemContent, i int) { c.Set("/img/i0.png", alt[i&1]) })
	})
}

// BenchmarkServeStatic measures the fully warm non-HTML serve: every header
// value comes from the per-Resource cache and the per-second Date cache, so
// the steady state is allocation-free.
func BenchmarkServeStatic(b *testing.B) {
	s := decorated(benchContent())
	req := httptest.NewRequest("GET", "/a.png", nil)
	w := &nullWriter{h: make(http.Header)}
	s.ServeHTTP(w, req) // warm the Resource header cache
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.ServeHTTP(w, req)
	}
}

// BenchmarkServeHTML measures the warm catalyst HTML serve of a
// three-reference page: render from the cache (pooled-key byte lookup), the
// render's ETag map re-verified and reused, and precomputed entity headers.
// BenchmarkServeHTMLSite is the same on a page of realistic fan-out.
func BenchmarkServeHTML(b *testing.B) {
	s := decorated(benchContent())
	req := httptest.NewRequest("GET", "/", nil)
	w := &nullWriter{h: make(http.Header)}
	s.ServeHTTP(w, req)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.ServeHTTP(w, req)
	}
}

// BenchmarkServeNotModified measures the conditional revalidation answer, the
// request class a catalyst deployment should make nearly free.
func BenchmarkServeNotModified(b *testing.B) {
	s := decorated(benchContent())
	warm := httptest.NewRequest("GET", "/a.png", nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, warm)
	req := httptest.NewRequest("GET", "/a.png", nil)
	req.Header.Set("If-None-Match", rec.Header().Get("Etag"))
	w := &nullWriter{h: make(http.Header)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.ServeHTTP(w, req)
	}
}
