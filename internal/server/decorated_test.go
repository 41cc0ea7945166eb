package server_test

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"testing/fstest"
	"time"

	"cachecatalyst/catalyst"
	"cachecatalyst/internal/core"
	"cachecatalyst/internal/etag"
	"cachecatalyst/internal/netsim"
	"cachecatalyst/internal/server"
	"cachecatalyst/internal/telemetry"
	"cachecatalyst/internal/vclock"
)

// The tests here serve decorated pages: catalyst.Middleware in front of a
// Server, the arrangement catalyst.NewServer and catalystd -dir serve and
// the simulator's decorating schemes run.

// front is a Server with catalyst.Middleware in front of it, and the
// registry both index their counters in.
type front struct {
	http.Handler
	srv *server.Server
	reg *telemetry.Registry
}

func newFront(c server.Content, so server.Options, mo catalyst.MiddlewareOptions) *front {
	so.Telemetry = telemetry.NewRegistry()
	srv := server.New(c, so)
	return &front{catalyst.Middleware(srv, mo), srv, so.Telemetry}
}

// counter reads one of the pair's counters by its registry name.
func (f *front) counter(name string) int64 { return f.reg.Snapshot().Counters[name] }

func TestCatalystHTMLGetsMapAndInjection(t *testing.T) {
	s := decorated(server.BuildSite())
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
	if built, bytes := catalyst.MapsBuilt(s); built != 1 || bytes == 0 {
		t.Error("map metrics not counted")
	}
}

func TestCatalystMapTagsMatchResourceETags(t *testing.T) {
	content := server.BuildSite()
	s := decorated(content)
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
	s := decorated(server.BuildSite())
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

func TestCatalystNonHTMLUndecorated(t *testing.T) {
	s := decorated(server.BuildSite())
	rec := get(t, s, "/a.css", nil)
	if rec.Header().Get(core.HeaderName) != "" {
		t.Error("map header on a stylesheet")
	}
}

func TestWorkerScriptServed(t *testing.T) {
	s := decorated(server.BuildSite())
	rec := get(t, s, core.ServiceWorkerPath, nil)
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), core.HeaderName) {
		t.Fatalf("worker script: status=%d", rec.Code)
	}
	if got := rec.Header().Get("Cache-Control"); got != "no-cache" {
		t.Errorf("worker script Cache-Control = %q", got)
	}
	// Without the middleware the path 404s like any other.
	plain := server.New(server.BuildSite(), server.Options{})
	if rec := get(t, plain, core.ServiceWorkerPath, nil); rec.Code != 404 {
		t.Fatalf("non-catalyst SW path status = %d", rec.Code)
	}
}

func TestQueryStringResources(t *testing.T) {
	c := server.BuildSite()
	c.SetBody("/app.js?v=2", "versioned", server.CachePolicy{NoCache: true})
	c.SetBody("/page.html", `<script src="/app.js?v=2"></script>`, server.CachePolicy{NoCache: true})
	s := decorated(c)
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
	content, err := server.NewFSContent(fsys, func(p string) server.CachePolicy {
		if strings.HasSuffix(p, ".png") {
			return server.CachePolicy{MaxAge: time.Hour, HasMaxAge: true}
		}
		return server.CachePolicy{NoCache: true}
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := content.Get("/img/x.png"); !ok {
		t.Fatal("file not loaded")
	}
	// index.html is also served at the directory root.
	if r, ok := content.Get("/"); !ok || !server.IsHTML(r.ContentType) {
		t.Fatalf("directory index: %v %v", r, ok)
	}
	s := decorated(content)
	rec := get(t, s, "/", nil)
	m, _ := core.DecodeMap(rec.Header().Get(core.HeaderName))
	if _, ok := m["/img/x.png"]; !ok {
		t.Fatalf("map = %v", m)
	}
}

func TestOriginAdapter(t *testing.T) {
	s := decorated(server.BuildSite())
	origin := server.NewOrigin(s)
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
	s := decorated(server.BuildSite())

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
	site := server.BuildSite()
	s := newFront(site, server.Options{Clock: vclock.NewVirtual(vclock.Epoch)}, catalyst.MiddlewareOptions{})

	first := get(t, s, "/index.html", nil)
	if first.Code != 200 {
		t.Fatalf("status = %d", first.Code)
	}
	if loads := s.counter("server.renders.loads"); loads != 1 {
		t.Fatalf("first serve ran %d extractions, want 1", loads)
	}
	second := get(t, s, "/index.html", nil)
	if loads, hits := s.counter("server.renders.loads"), s.counter("server.renders.hits"); loads != 1 || hits == 0 {
		t.Fatalf("unchanged page not reused: %d loads, %d hits", loads, hits)
	}
	if first.Body.String() != second.Body.String() ||
		first.Header().Get("Etag") != second.Header().Get("Etag") {
		t.Fatal("memoized render served a different entity")
	}

	// Changing the stored page changes its validator, so the memoized
	// render cannot be (and is not) served stale.
	site.SetBody("/index.html", `<html><body><img src="/d.jpg"></body></html>`, server.CachePolicy{NoCache: true})
	third := get(t, s, "/index.html", nil)
	if third.Header().Get("Etag") == first.Header().Get("Etag") {
		t.Fatal("changed page kept its validator")
	}
	if !strings.Contains(third.Body.String(), "/d.jpg") || strings.Contains(third.Body.String(), "/a.css") {
		t.Fatalf("stale body served: %q", third.Body.String())
	}
	if loads := s.counter("server.renders.loads"); loads != 2 {
		t.Fatalf("changed page did not re-extract: %d loads", loads)
	}
}

func TestServerRenderCacheDisabled(t *testing.T) {
	s := newFront(server.BuildSite(), server.Options{Clock: vclock.NewVirtual(vclock.Epoch)}, catalyst.MiddlewareOptions{MaxRenderBytes: -1})
	if _, ok := s.reg.Snapshot().Counters["server.renders.hits"]; ok {
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
	c, err := server.NewFSContent(fsys, nil)
	if err != nil {
		t.Fatal(err)
	}
	s := decorated(c)
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

	built, _ := catalyst.MapsBuilt(s)
	if err := c.Reload(); err != nil { // same tree, all-new Resources
		t.Fatal(err)
	}
	pageMap()
	if got, _ := catalyst.MapsBuilt(s); got != built {
		t.Errorf("reload of an unchanged tree cost %d resolves, want 0", got-built)
	}
	redeploy("final")
	pageMap()
	pageMap()
	if got, _ := catalyst.MapsBuilt(s); got != built+1 {
		t.Errorf("reload of a changed tree cost %d resolves, want 1", got-built)
	}
}

// TestMapDecisionNamesBuiltOrReused: the decision token says what happened —
// "map-built" only when a resolve ran, "map-reused" when the render's
// verified map was shipped again.
func TestMapDecisionNamesBuiltOrReused(t *testing.T) {
	c := server.BuildSite()
	s := catalyst.Middleware(server.New(c, server.Options{ServerTiming: true}), catalyst.MiddlewareOptions{})
	decisions := func() string {
		return strings.Join(telemetry.ParseServerTiming(get(t, s, "/index.html", nil).Header().Get(telemetry.ServerTimingHeader)), " ")
	}
	if got := decisions(); !strings.Contains(got, "map-built") {
		t.Errorf("first navigation decided %q, want map-built", got)
	}
	if got := decisions(); !strings.Contains(got, "map-reused") || strings.Contains(got, "map-built") {
		t.Errorf("second navigation decided %q, want map-reused and no map-built", got)
	}
	c.SetBody("/d.jpg", "JPEGDATA2", server.CachePolicy{})
	if got := decisions(); !strings.Contains(got, "map-built") {
		t.Errorf("navigation after a subresource changed decided %q, want map-built", got)
	}
}

func TestAccessLogRecordsRequests(t *testing.T) {
	s := newFront(server.BuildSite(), server.Options{AccessLogSize: 16, Clock: vclock.NewVirtual(vclock.Epoch)}, catalyst.MiddlewareOptions{})
	get(t, s, "/index.html", nil)
	first := get(t, s, "/a.css", nil)
	get(t, s, "/a.css", map[string]string{"If-None-Match": first.Header().Get("Etag")})
	get(t, s, "/ghost.png", nil)

	entries := s.srv.RecentRequests()
	if len(entries) != 4 {
		t.Fatalf("entries = %d", len(entries))
	}
	if entries[0].Path != "/index.html" || entries[0].Status != 200 {
		t.Fatalf("entry 0 = %+v", entries[0])
	}
	if entries[0].MapEntries == 0 {
		t.Fatal("HTML entry missing map count")
	}
	if entries[1].MapEntries != 0 {
		t.Fatal("CSS entry has map count")
	}
	if entries[2].Status != http.StatusNotModified || !entries[2].Conditional {
		t.Fatalf("conditional entry = %+v", entries[2])
	}
	if entries[2].BodyBytes != 0 {
		t.Fatal("304 recorded body bytes")
	}
	if entries[3].Status != 404 {
		t.Fatalf("404 entry = %+v", entries[3])
	}
}

// TestSnapshotCounters reads the server's counters where /debug/catalystd
// does: the registry, with the recent-request ring beside it.
func TestSnapshotCounters(t *testing.T) {
	s := newFront(server.BuildSite(), server.Options{AccessLogSize: 8}, catalyst.MiddlewareOptions{})
	reg := s.reg
	get(t, s, "/index.html", nil)
	first := get(t, s, "/d.jpg", nil)
	get(t, s, "/d.jpg", map[string]string{"If-None-Match": first.Header().Get("Etag")})

	c := reg.Snapshot().Counters
	if c["server.requests"] != 3 || c["server.not_modified"] != 1 || c["server.maps_built"] != 1 {
		t.Fatalf("counters = %v", c)
	}
	if c["server.body_bytes"] == 0 || c["server.map_bytes"] == 0 {
		t.Fatalf("byte counters empty: %v", c)
	}
	if recent := s.srv.RecentRequests(); len(recent) != 3 {
		t.Fatalf("recent = %d", len(recent))
	}
}

// End-to-end recording: a session's first visit records JS-discovered
// resources; the second visit's map covers them.
func TestRecordingModeFoldsIntoMap(t *testing.T) {
	c := server.NewMemContent()
	// page.html references only a.css statically; dyn.js is discovered at
	// "runtime" (the client just requests it).
	c.SetBody("/page.html", `<link rel="stylesheet" href="/a.css">`, server.CachePolicy{NoCache: true})
	c.SetBody("/a.css", "body{}", server.CachePolicy{NoCache: true})
	c.SetBody("/dyn.js", "dynamic()", server.CachePolicy{NoCache: true})
	s := catalyst.Middleware(server.New(c, server.Options{Record: true}), catalyst.MiddlewareOptions{})

	// First navigation mints a session.
	nav1 := get(t, s, "/page.html", nil)
	m1, _ := core.DecodeMap(nav1.Header().Get(core.HeaderName))
	if _, ok := m1["/dyn.js"]; ok {
		t.Fatal("first visit cannot know about dyn.js")
	}
	cookie := nav1.Header().Get("Set-Cookie")
	sid := strings.TrimPrefix(strings.Split(cookie, ";")[0], server.SessionCookie+"=")

	// The client, executing JS, fetches dyn.js with the page as referer.
	req := httptest.NewRequest("GET", "/dyn.js", nil)
	req.Header.Set("Referer", "https://site.example/page.html")
	req.AddCookie(&http.Cookie{Name: server.SessionCookie, Value: sid})
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != 200 {
		t.Fatalf("dyn fetch status = %d", rec.Code)
	}

	// Second navigation: the map now covers the recorded resource.
	req2 := httptest.NewRequest("GET", "/page.html", nil)
	req2.AddCookie(&http.Cookie{Name: server.SessionCookie, Value: sid})
	rec2 := httptest.NewRecorder()
	s.ServeHTTP(rec2, req2)
	m2, _ := core.DecodeMap(rec2.Header().Get(core.HeaderName))
	if _, ok := m2["/dyn.js"]; !ok {
		t.Fatalf("recorded resource missing from second map: %v", m2)
	}
	if _, ok := m2["/a.css"]; !ok {
		t.Fatal("static resource lost from second map")
	}
	// A different session's map is unaffected.
	navOther := get(t, s, "/page.html", nil)
	mOther, _ := core.DecodeMap(navOther.Header().Get(core.HeaderName))
	if _, ok := mOther["/dyn.js"]; ok {
		t.Fatal("recording leaked across sessions")
	}
}

// TestRenderMemoKeysByPageURL: one Resource served at two page URLs is two
// renders, since its relative references resolve against each URL, so the
// two pages ship two different maps. A memo keyed by the Resource alone
// hands the second URL the first one's references. Front ends sharing a
// memo, as a site's worlds do, share the render itself, and each keeps its
// own map slot.
func TestRenderMemoKeysByPageURL(t *testing.T) {
	c := server.NewMemContent()
	page := &server.Resource{Body: []byte(`<html><head><link rel="stylesheet" href="s.css"></head><body><img src="i.png"></body></html>`)}
	c.Set("/a/index.html", page)
	c.Set("/b/index.html", page)
	long := server.CachePolicy{MaxAge: time.Hour, HasMaxAge: true}
	for _, p := range []string{"/a/s.css", "/b/s.css", "/a/i.png", "/b/i.png"} {
		c.SetBody(p, p, long)
	}
	memo := catalyst.NewRenderMemo()
	sharing := func() (http.Handler, netsim.Origin) {
		h := catalyst.ShareRenders(catalyst.Middleware(server.New(c, server.Options{}), catalyst.MiddlewareOptions{}), memo)
		return h, server.NewOrigin(h)
	}
	_, mine := sharing()
	bodies := map[string][]byte{}
	for _, dir := range []string{"/a/", "/b/"} {
		resp := mine.RoundTrip(&netsim.Request{Method: "GET", Path: dir + "index.html"})
		m, err := core.DecodeMap(resp.Header.Get(core.HeaderName))
		if err != nil {
			t.Fatal(err)
		}
		if len(m) != 2 {
			t.Errorf("%sindex.html ships a map of %d entries, want 2: %v", dir, len(m), m)
		}
		for _, p := range []string{dir + "s.css", dir + "i.png"} {
			if _, ok := m[p]; !ok {
				t.Errorf("%sindex.html's map lacks %s: %v", dir, p, m)
			}
		}
		bodies[dir] = resp.Body
	}
	if &bodies["/a/"][0] == &bodies["/b/"][0] {
		t.Error("the memo holds one render of one Resource at two URLs, want 2")
	}

	theirs, origin := sharing()
	if resp := origin.RoundTrip(&netsim.Request{Method: "GET", Path: "/a/index.html"}); &resp.Body[0] != &bodies["/a/"][0] {
		t.Error("two front ends sharing a memo rendered the same page version twice")
	}
	if built, _ := catalyst.MapsBuilt(theirs); built != 1 {
		t.Error("two front ends share a map slot; the map slot must stay per front end")
	}
}
