package server

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"testing/fstest"
	"time"

	"cachecatalyst/internal/core"
	"cachecatalyst/internal/decorate"
	"cachecatalyst/internal/etag"
	"cachecatalyst/internal/headers"
	"cachecatalyst/internal/netsim"
	"cachecatalyst/internal/telemetry"
	"cachecatalyst/internal/vclock"
)

func buildSite() *MemContent {
	c := NewMemContent()
	c.SetBody("/index.html", `<html><head><link rel="stylesheet" href="/a.css"><script src="/b.js"></script></head><body><img src="/d.jpg"></body></html>`, CachePolicy{NoCache: true})
	c.SetBody("/a.css", `.x { background: url(/bg.png); }`, CachePolicy{MaxAge: 7 * 24 * time.Hour, HasMaxAge: true})
	c.SetBody("/b.js", `console.log("b")`, CachePolicy{NoCache: true})
	c.SetBody("/d.jpg", "JPEGDATA", CachePolicy{MaxAge: time.Hour, HasMaxAge: true})
	c.SetBody("/bg.png", "PNGDATA", CachePolicy{})
	return c
}

func get(t *testing.T, s *Server, path string, hdr map[string]string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest("GET", path, nil)
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	return rec
}

func TestServeBasicResource(t *testing.T) {
	s := New(buildSite(), Options{Clock: vclock.NewVirtual(vclock.Epoch)})
	rec := get(t, s, "/a.css", nil)
	if rec.Code != 200 {
		t.Fatalf("status = %d", rec.Code)
	}
	if got := rec.Header().Get("Content-Type"); got != "text/css; charset=utf-8" {
		t.Errorf("Content-Type = %q", got)
	}
	if got := rec.Header().Get("Cache-Control"); got != "max-age=604800" {
		t.Errorf("Cache-Control = %q", got)
	}
	if rec.Header().Get("Etag") == "" {
		t.Error("missing Etag")
	}
	if rec.Header().Get("Date") != "Mon, 18 Nov 2024 00:00:00 GMT" {
		t.Errorf("Date = %q", rec.Header().Get("Date"))
	}
	if rec.Header().Get("Content-Length") == "" {
		t.Error("missing Content-Length")
	}
}

func TestNotFound(t *testing.T) {
	s := New(buildSite(), Options{})
	if rec := get(t, s, "/ghost.js", nil); rec.Code != 404 {
		t.Fatalf("status = %d", rec.Code)
	}
	if s.Metrics.NotFound.Load() != 1 {
		t.Error("NotFound metric not counted")
	}
}

func TestMethodNotAllowed(t *testing.T) {
	s := New(buildSite(), Options{})
	req := httptest.NewRequest("POST", "/a.css", nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("status = %d", rec.Code)
	}
}

func TestHeadOmitsBody(t *testing.T) {
	s := New(buildSite(), Options{})
	req := httptest.NewRequest("HEAD", "/a.css", nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != 200 || rec.Body.Len() != 0 {
		t.Fatalf("HEAD: status=%d len=%d", rec.Code, rec.Body.Len())
	}
}

func TestConditionalGet304(t *testing.T) {
	s := New(buildSite(), Options{})
	first := get(t, s, "/d.jpg", nil)
	tag := first.Header().Get("Etag")
	second := get(t, s, "/d.jpg", map[string]string{"If-None-Match": tag})
	if second.Code != http.StatusNotModified {
		t.Fatalf("status = %d", second.Code)
	}
	if second.Body.Len() != 0 {
		t.Error("304 carried a body")
	}
	if s.Metrics.NotModified.Load() != 1 {
		t.Error("NotModified metric not counted")
	}
	// A stale validator gets the full body.
	third := get(t, s, "/d.jpg", map[string]string{"If-None-Match": `"stale"`})
	if third.Code != 200 || third.Body.Len() == 0 {
		t.Fatalf("stale validator: status=%d", third.Code)
	}
}

func TestIfModifiedSince(t *testing.T) {
	c := NewMemContent()
	lm := vclock.Epoch.Add(-48 * time.Hour)
	c.Set("/doc.txt", &Resource{Body: []byte("text"), LastModified: lm})
	s := New(c, Options{Clock: vclock.NewVirtual(vclock.Epoch)})

	// Unmodified since the client's date → 304.
	rec := get(t, s, "/doc.txt", map[string]string{
		"If-Modified-Since": "Sun, 17 Nov 2024 00:00:00 GMT", // one day after lm
	})
	if rec.Code != http.StatusNotModified {
		t.Fatalf("status = %d, want 304", rec.Code)
	}
	// Modified after the client's date → 200.
	rec = get(t, s, "/doc.txt", map[string]string{
		"If-Modified-Since": "Thu, 14 Nov 2024 00:00:00 GMT", // before lm
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, want 200", rec.Code)
	}
	// Exactly equal timestamps → 304 ("not modified since").
	rec = get(t, s, "/doc.txt", map[string]string{
		"If-Modified-Since": "Sat, 16 Nov 2024 00:00:00 GMT",
	})
	if rec.Code != http.StatusNotModified {
		t.Fatalf("status = %d, want 304 for equal timestamps", rec.Code)
	}
	// Malformed date is ignored.
	rec = get(t, s, "/doc.txt", map[string]string{"If-Modified-Since": "not a date"})
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, want 200 for malformed IMS", rec.Code)
	}
}

func TestIfNoneMatchTakesPrecedenceOverIMS(t *testing.T) {
	c := NewMemContent()
	c.Set("/doc.txt", &Resource{Body: []byte("text"), LastModified: vclock.Epoch.Add(-time.Hour)})
	s := New(c, Options{Clock: vclock.NewVirtual(vclock.Epoch)})
	first := get(t, s, "/doc.txt", nil)

	// Stale INM + satisfied IMS: RFC 9110 says evaluate INM only → 200.
	rec := get(t, s, "/doc.txt", map[string]string{
		"If-None-Match":     `"stale-tag"`,
		"If-Modified-Since": headers.FormatHTTPDate(vclock.Epoch),
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, want 200 (INM precedence)", rec.Code)
	}
	// Matching INM + unsatisfied IMS → 304.
	rec = get(t, s, "/doc.txt", map[string]string{
		"If-None-Match":     first.Header().Get("Etag"),
		"If-Modified-Since": "Thu, 01 Jan 1970 00:00:00 GMT",
	})
	if rec.Code != http.StatusNotModified {
		t.Fatalf("status = %d, want 304 (INM precedence)", rec.Code)
	}
}

func TestCatalystHTMLGetsMapAndInjection(t *testing.T) {
	s := New(buildSite(), Options{Catalyst: true})
	rec := get(t, s, "/index.html", nil)
	if rec.Code != 200 {
		t.Fatalf("status = %d", rec.Code)
	}
	m, err := core.DecodeMap(rec.Header().Get(core.HeaderName))
	if err != nil {
		t.Fatal(err)
	}
	// Map covers the three direct resources plus the CSS-referenced bg.png.
	for _, p := range []string{"/a.css", "/b.js", "/d.jpg", "/bg.png"} {
		if _, ok := m[p]; !ok {
			t.Errorf("map missing %q: %v", p, m)
		}
	}
	if !strings.Contains(rec.Body.String(), core.RegistrationSnippet) {
		t.Error("registration snippet not injected")
	}
	if s.Metrics.MapsBuilt.Load() != 1 || s.Metrics.MapBytes.Load() == 0 {
		t.Error("map metrics not counted")
	}
}

func TestCatalystMapTagsMatchResourceETags(t *testing.T) {
	content := buildSite()
	s := New(content, Options{Catalyst: true})
	rec := get(t, s, "/index.html", nil)
	m, _ := core.DecodeMap(rec.Header().Get(core.HeaderName))
	cssRes, _ := content.Get("/a.css")
	if m["/a.css"] != cssRes.ETag {
		t.Fatalf("map tag %v != resource tag %v", m["/a.css"], cssRes.ETag)
	}
	// The map tag must equal the Etag header a direct fetch returns.
	direct := get(t, s, "/a.css", nil)
	if got, _ := etag.Parse(direct.Header().Get("Etag")); got != m["/a.css"] {
		t.Fatalf("served tag %v != map tag %v", got, m["/a.css"])
	}
}

func TestCatalystHTMLETagReflectsInjectedBody(t *testing.T) {
	s := New(buildSite(), Options{Catalyst: true})
	rec := get(t, s, "/index.html", nil)
	wantTag := etag.ForBytes(rec.Body.Bytes())
	gotTag, _ := etag.Parse(rec.Header().Get("Etag"))
	if gotTag != wantTag {
		t.Fatalf("HTML Etag %v does not validate the served (injected) body %v", gotTag, wantTag)
	}
	// Conditional GET with that tag must 304.
	second := get(t, s, "/index.html", map[string]string{"If-None-Match": gotTag.String()})
	if second.Code != http.StatusNotModified {
		t.Fatalf("status = %d", second.Code)
	}
}

func TestCatalystOffLeavesHTMLAlone(t *testing.T) {
	s := New(buildSite(), Options{})
	rec := get(t, s, "/index.html", nil)
	if rec.Header().Get(core.HeaderName) != "" {
		t.Error("map header present without catalyst mode")
	}
	if strings.Contains(rec.Body.String(), "serviceWorker") {
		t.Error("snippet injected without catalyst mode")
	}
}

func TestCatalystNonHTMLUndecorated(t *testing.T) {
	s := New(buildSite(), Options{Catalyst: true})
	rec := get(t, s, "/a.css", nil)
	if rec.Header().Get(core.HeaderName) != "" {
		t.Error("map header on a stylesheet")
	}
}

func TestWorkerScriptServed(t *testing.T) {
	s := New(buildSite(), Options{Catalyst: true})
	rec := get(t, s, core.ServiceWorkerPath, nil)
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), core.HeaderName) {
		t.Fatalf("worker script: status=%d", rec.Code)
	}
	if got := rec.Header().Get("Cache-Control"); got != "no-cache" {
		t.Errorf("worker script Cache-Control = %q", got)
	}
	// Without catalyst mode the path 404s like any other.
	plain := New(buildSite(), Options{})
	if rec := get(t, plain, core.ServiceWorkerPath, nil); rec.Code != 404 {
		t.Fatalf("non-catalyst SW path status = %d", rec.Code)
	}
}

func TestQueryStringResources(t *testing.T) {
	c := buildSite()
	c.SetBody("/app.js?v=2", "versioned", CachePolicy{NoCache: true})
	c.SetBody("/page.html", `<script src="/app.js?v=2"></script>`, CachePolicy{NoCache: true})
	s := New(c, Options{Catalyst: true})
	rec := get(t, s, "/app.js?v=2", nil)
	if rec.Code != 200 || rec.Body.String() != "versioned" {
		t.Fatalf("query resource: %d %q", rec.Code, rec.Body.String())
	}
	nav := get(t, s, "/page.html", nil)
	m, _ := core.DecodeMap(nav.Header().Get(core.HeaderName))
	if _, ok := m["/app.js?v=2"]; !ok {
		t.Fatalf("query-string resource missing from map: %v", m)
	}
}

func TestFSContent(t *testing.T) {
	fsys := fstest.MapFS{
		"index.html": {Data: []byte(`<img src="/img/x.png">`)},
		"img/x.png":  {Data: []byte("PNG")},
		"css/s.css":  {Data: []byte("body{}")},
	}
	content, err := NewFSContent(fsys, func(p string) CachePolicy {
		if strings.HasSuffix(p, ".png") {
			return CachePolicy{MaxAge: time.Hour, HasMaxAge: true}
		}
		return CachePolicy{NoCache: true}
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := content.Get("/img/x.png"); !ok {
		t.Fatal("file not loaded")
	}
	// index.html is also served at the directory root.
	if r, ok := content.Get("/"); !ok || !decorate.IsHTML(r.ContentType) {
		t.Fatalf("directory index: %v %v", r, ok)
	}
	s := New(content, Options{Catalyst: true})
	rec := get(t, s, "/", nil)
	m, _ := core.DecodeMap(rec.Header().Get(core.HeaderName))
	if _, ok := m["/img/x.png"]; !ok {
		t.Fatalf("map = %v", m)
	}
}

func TestTypeByPath(t *testing.T) {
	for p, want := range map[string]string{
		"/a.css":       "text/css; charset=utf-8",
		"/a.js":        "text/javascript; charset=utf-8",
		"/a.mjs":       "text/javascript; charset=utf-8",
		"/page.html":   "text/html; charset=utf-8",
		"/":            "text/html; charset=utf-8",
		"/noext":       "text/html; charset=utf-8",
		"/f.woff2":     "font/woff2",
		"/a.js?v=3":    "text/javascript; charset=utf-8",
		"/img.svg":     "image/svg+xml",
		"/data.json":   "application/json",
		"/x.unknownxt": "application/octet-stream",
	} {
		if got := TypeByPath(p); got != want {
			t.Errorf("TypeByPath(%q) = %q, want %q", p, got, want)
		}
	}
}

func TestCachePolicyCacheControl(t *testing.T) {
	tests := []struct {
		p    CachePolicy
		want string
	}{
		{CachePolicy{NoStore: true}, "no-store"},
		{CachePolicy{NoCache: true}, "no-cache"},
		{CachePolicy{MaxAge: time.Hour, HasMaxAge: true}, "max-age=3600"},
		{CachePolicy{HasMaxAge: true}, "max-age=0"},
		{CachePolicy{}, ""},
	}
	for _, tt := range tests {
		if got := tt.p.CacheControl(); got != tt.want {
			t.Errorf("%+v → %q, want %q", tt.p, got, tt.want)
		}
	}
}

func TestOriginAdapter(t *testing.T) {
	s := New(buildSite(), Options{Catalyst: true})
	origin := NewOrigin(s)
	resp := origin.RoundTrip(&netsim.Request{Method: "GET", Path: "/index.html", Header: make(http.Header)})
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if resp.Header.Get(core.HeaderName) == "" {
		t.Fatal("origin adapter lost the map header")
	}
	// Conditional request through the adapter earns a 304.
	first := origin.RoundTrip(&netsim.Request{Method: "GET", Path: "/d.jpg", Header: make(http.Header)})
	h := make(http.Header)
	h.Set("If-None-Match", first.Header.Get("Etag"))
	nm := origin.RoundTrip(&netsim.Request{Method: "GET", Path: "/d.jpg", Header: h})
	if nm.StatusCode != http.StatusNotModified {
		t.Fatalf("304 through adapter: %d", nm.StatusCode)
	}
	if len(nm.Body) != 0 {
		t.Fatal("304 carried a body through the adapter")
	}
}

func TestWorkerScriptRevalidation(t *testing.T) {
	s := New(buildSite(), Options{Clock: vclock.NewVirtual(vclock.Epoch), Catalyst: true})

	rec := get(t, s, core.ServiceWorkerPath, nil)
	if rec.Code != 200 || rec.Body.String() != core.ServiceWorkerScript {
		t.Fatalf("first fetch: status = %d", rec.Code)
	}
	tag := rec.Header().Get("Etag")
	if tag == "" {
		t.Fatal("worker script served without a validator")
	}

	rec = get(t, s, core.ServiceWorkerPath, map[string]string{"If-None-Match": tag})
	if rec.Code != http.StatusNotModified {
		t.Fatalf("revalidation: status = %d, want 304", rec.Code)
	}
	if rec.Body.Len() != 0 {
		t.Fatal("304 carried the script body")
	}

	rec = get(t, s, core.ServiceWorkerPath, map[string]string{"If-None-Match": `"stale"`})
	if rec.Code != 200 || rec.Body.String() != core.ServiceWorkerScript {
		t.Fatalf("stale validator: status = %d", rec.Code)
	}
}

func TestServerRenderCacheReusesUnchangedPage(t *testing.T) {
	site := buildSite()
	s := New(site, Options{Clock: vclock.NewVirtual(vclock.Epoch), Catalyst: true})

	first := get(t, s, "/index.html", nil)
	if first.Code != 200 {
		t.Fatalf("status = %d", first.Code)
	}
	if c := s.renders.Counters(); c.Loads != 1 {
		t.Fatalf("first serve ran %d extractions, want 1", c.Loads)
	}
	second := get(t, s, "/index.html", nil)
	if c := s.renders.Counters(); c.Loads != 1 || c.Hits == 0 {
		t.Fatalf("unchanged page not reused: %+v", c)
	}
	if first.Body.String() != second.Body.String() ||
		first.Header().Get("Etag") != second.Header().Get("Etag") {
		t.Fatal("memoized render served a different entity")
	}

	// Changing the stored page changes its validator, so the memoized
	// render cannot be (and is not) served stale.
	site.SetBody("/index.html", `<html><body><img src="/d.jpg"></body></html>`, CachePolicy{NoCache: true})
	third := get(t, s, "/index.html", nil)
	if third.Header().Get("Etag") == first.Header().Get("Etag") {
		t.Fatal("changed page kept its validator")
	}
	if !strings.Contains(third.Body.String(), "/d.jpg") || strings.Contains(third.Body.String(), "/a.css") {
		t.Fatalf("stale body served: %q", third.Body.String())
	}
	if c := s.renders.Counters(); c.Loads != 2 {
		t.Fatalf("changed page did not re-extract: %+v", c)
	}
}

// TestServerRenderStoreKeysByURL serves successive versions of one page: the
// store keeps one entry for its URL, the render of the version served now,
// and its accounting stays exact.
func TestServerRenderStoreKeysByURL(t *testing.T) {
	site := buildSite()
	s := New(site, Options{Clock: vclock.NewVirtual(vclock.Epoch), Catalyst: true})
	const versions = 8
	for v := 0; v < versions; v++ {
		title := fmt.Sprintf("<title>v%d</title>", v)
		site.SetBody("/index.html", "<html><head>"+title+`</head><body><img src="/d.jpg"></body></html>`, CachePolicy{NoCache: true})
		if rec := get(t, s, "/index.html", nil); !strings.Contains(rec.Body.String(), title) {
			t.Fatalf("version %d: stale body served: %q", v, rec.Body.String())
		}
	}
	if keys := s.renders.Keys(); len(keys) != 1 || keys[0] != "/index.html" {
		t.Fatalf("%d versions of one page left %q in the render store, want one entry for it", versions, keys)
	}
	if err := s.renders.Audit(); err != nil {
		t.Fatal(err)
	}
	if c := s.renders.Counters(); c.Loads != versions {
		t.Fatalf("%d renders built for %d versions", c.Loads, versions)
	}
}

func TestServerRenderCacheDisabled(t *testing.T) {
	s := New(buildSite(), Options{Clock: vclock.NewVirtual(vclock.Epoch), Catalyst: true, MaxRenderBytes: -1})
	if s.renders != nil {
		t.Fatal("render cache allocated despite MaxRenderBytes < 0")
	}
	rec := get(t, s, "/index.html", nil)
	if rec.Code != 200 || rec.Header().Get(core.HeaderName) == "" {
		t.Fatalf("uncached catalyst serve broken: %d", rec.Code)
	}
}

// TestFSContentReloadUnderTraffic reloads a changing tree while requests are
// being served: no data race (run under -race), every response's map
// decodes, the first response after Reload returns names the new tags, and
// only a reload that changed something costs a resolve — the slot compares
// validators, not the *Resource pointers a reload replaces wholesale.
func TestFSContentReloadUnderTraffic(t *testing.T) {
	fsys := fstest.MapFS{
		"index.html": {Data: []byte(`<html><head><link rel="stylesheet" href="/a.css"></head><body><img src="/img.png"></body></html>`)},
		"a.css":      {Data: []byte(`.x { background: url(/bg.png) }`)},
		"bg.png":     {Data: []byte("bg")},
		"img.png":    {Data: []byte("v0")},
	}
	c, err := NewFSContent(fsys, nil)
	if err != nil {
		t.Fatal(err)
	}
	s := New(c, Options{Catalyst: true})
	pageMap := func() core.ETagMap {
		m, err := core.DecodeMap(get(t, s, "/index.html", nil).Header().Get(core.HeaderName))
		if err != nil || len(m) == 0 {
			t.Errorf("map %v undecodable or empty: %v", m, err)
		}
		return m
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					pageMap()
				}
			}
		}()
	}
	// Only this goroutine touches fsys: Reload reads it here, the servers
	// read the snapshot Reload publishes.
	redeploy := func(body string) etag.Tag {
		fsys["img.png"] = &fstest.MapFile{Data: []byte(body)}
		if err := c.Reload(); err != nil {
			t.Fatal(err)
		}
		return etag.ForBytes([]byte(body))
	}
	for i := 1; i <= 20; i++ {
		want := redeploy(fmt.Sprint("v", i))
		if got := pageMap()["/img.png"]; got != want {
			t.Fatalf("reload %d: map names %v after Reload returned, want %v", i, got, want)
		}
	}
	close(stop)
	wg.Wait()

	built := s.Metrics.MapsBuilt.Load()
	if err := c.Reload(); err != nil { // same tree, all-new Resources
		t.Fatal(err)
	}
	pageMap()
	if got := s.Metrics.MapsBuilt.Load(); got != built {
		t.Errorf("reload of an unchanged tree cost %d resolves, want 0", got-built)
	}
	redeploy("final")
	pageMap()
	pageMap()
	if got := s.Metrics.MapsBuilt.Load(); got != built+1 {
		t.Errorf("reload of a changed tree cost %d resolves, want 1", got-built)
	}
}

// TestMapDecisionNamesBuiltOrReused: the decision token says what happened —
// "map-built" only when a resolve ran, "map-reused" when the render's
// verified map was shipped again.
func TestMapDecisionNamesBuiltOrReused(t *testing.T) {
	c := buildSite()
	s := New(c, Options{Catalyst: true, ServerTiming: true})
	decisions := func() string {
		return strings.Join(telemetry.ParseServerTiming(get(t, s, "/index.html", nil).Header().Get(telemetry.ServerTimingHeader)), " ")
	}
	if got := decisions(); !strings.Contains(got, "map-built") {
		t.Errorf("first navigation decided %q, want map-built", got)
	}
	if got := decisions(); !strings.Contains(got, "map-reused") || strings.Contains(got, "map-built") {
		t.Errorf("second navigation decided %q, want map-reused and no map-built", got)
	}
	c.SetBody("/d.jpg", "JPEGDATA2", CachePolicy{})
	if got := decisions(); !strings.Contains(got, "map-built") {
		t.Errorf("navigation after a subresource changed decided %q, want map-built", got)
	}
}
