package catalyst

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"testing/fstest"
	"time"

	"cachecatalyst/internal/server"
)

// clientWorld serves a small catalyst-enabled site over real sockets and
// returns its base URL plus the underlying server for metrics.
func clientWorld(t *testing.T) (string, *server.Server, func()) {
	t.Helper()
	fsys := fstest.MapFS{
		"index.html": {Data: []byte(`<link rel="stylesheet" href="/s.css"><img src="/logo.png">`)},
		"s.css":      {Data: []byte("body{}")},
		"logo.png":   {Data: []byte("PNG-V1")},
	}
	srv, err := NewServer(fsys, ServerOptions{Policy: DefaultPolicy})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	return ts.URL, srv, ts.Close
}

func TestClientFirstVisitFetchesAndCaches(t *testing.T) {
	base, srv, done := clientWorld(t)
	defer done()
	c := NewClient(nil)

	page, err := c.Get(base + "/index.html")
	if err != nil {
		t.Fatal(err)
	}
	if page.Source != "network" || page.StatusCode != 200 {
		t.Fatalf("page: %s %d", page.Source, page.StatusCode)
	}
	css, err := c.Get(base + "/s.css")
	if err != nil {
		t.Fatal(err)
	}
	if css.Source != "network" || string(css.Body) != "body{}" {
		t.Fatalf("css: %+v", css)
	}
	logo, err := c.Get(base + "/logo.png")
	if err != nil {
		t.Fatal(err)
	}
	if logo.Source != "network" {
		t.Fatalf("logo source = %s", logo.Source)
	}
	if got := srv.Metrics.Requests.Load(); got != 3 {
		t.Fatalf("server saw %d requests, want 3", got)
	}
}

func TestClientRevisitServesFromCache(t *testing.T) {
	base, srv, done := clientWorld(t)
	defer done()
	c := NewClient(nil)
	mustGet := func(p string) *ClientResponse {
		t.Helper()
		r, err := c.Get(base + p)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	mustGet("/index.html")
	mustGet("/s.css")
	mustGet("/logo.png")
	before := srv.Metrics.Requests.Load()

	// Revisit: the page revalidates (304 carries a fresh map)...
	page := mustGet("/index.html")
	if page.Source != "revalidated" {
		t.Fatalf("page revisit source = %s", page.Source)
	}
	// ...and the subresources come from cache with zero requests.
	css := mustGet("/s.css")
	logo := mustGet("/logo.png")
	if css.Source != "cache" || logo.Source != "cache" {
		t.Fatalf("subresources: %s, %s", css.Source, logo.Source)
	}
	if string(css.Body) != "body{}" || string(logo.Body) != "PNG-V1" {
		t.Fatal("cached bodies wrong")
	}
	if got := srv.Metrics.Requests.Load() - before; got != 1 {
		t.Fatalf("server saw %d requests on revisit, want 1", got)
	}
}

func TestClientFetchesChangedResource(t *testing.T) {
	fsys := fstest.MapFS{
		"index.html": {Data: []byte(`<img src="/logo.png">`)},
		"logo.png":   {Data: []byte("PNG-V1")},
	}
	srv, err := NewServer(fsys, ServerOptions{Policy: DefaultPolicy})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	c := NewClient(nil)
	if _, err := c.Get(ts.URL + "/index.html"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get(ts.URL + "/logo.png"); err != nil {
		t.Fatal(err)
	}

	// Change the image on disk and reload the server content.
	fsys["logo.png"] = &fstest.MapFile{Data: []byte("PNG-V2-CHANGED")}
	reloadable, ok := srv.Content().(*server.FSContent)
	if !ok {
		t.Fatal("content not reloadable")
	}
	if err := reloadable.Reload(); err != nil {
		t.Fatal(err)
	}

	if _, err := c.Get(ts.URL + "/index.html"); err != nil {
		t.Fatal(err)
	}
	logo, err := c.Get(ts.URL + "/logo.png")
	if err != nil {
		t.Fatal(err)
	}
	if logo.Source == "cache" {
		t.Fatal("stale logo served from cache after change")
	}
	if string(logo.Body) != "PNG-V2-CHANGED" {
		t.Fatalf("body = %q", logo.Body)
	}
	// And the *next* revisit serves the new version locally.
	if _, err := c.Get(ts.URL + "/index.html"); err != nil {
		t.Fatal(err)
	}
	logo2, _ := c.Get(ts.URL + "/logo.png")
	if logo2.Source != "cache" || string(logo2.Body) != "PNG-V2-CHANGED" {
		t.Fatalf("re-cache failed: %s %q", logo2.Source, logo2.Body)
	}
}

func TestClientAgainstPlainServer(t *testing.T) {
	// A server without CacheCatalyst: the client degrades to conditional
	// requests, never serving stale.
	content := server.NewMemContent()
	content.SetBody("/x.txt", "hello", server.CachePolicy{NoCache: true})
	ts := httptest.NewServer(server.New(content, server.Options{}))
	defer ts.Close()

	c := NewClient(nil)
	first, err := c.Get(ts.URL + "/x.txt")
	if err != nil {
		t.Fatal(err)
	}
	if first.Source != "network" {
		t.Fatalf("source = %s", first.Source)
	}
	second, err := c.Get(ts.URL + "/x.txt")
	if err != nil {
		t.Fatal(err)
	}
	if second.Source != "revalidated" || string(second.Body) != "hello" {
		t.Fatalf("second: %s %q", second.Source, second.Body)
	}
}

func TestClientRejectsRelativeURL(t *testing.T) {
	c := NewClient(nil)
	if _, err := c.Get("/relative"); err == nil {
		t.Fatal("relative URL accepted")
	}
	if _, err := c.Get("://bad"); err == nil {
		t.Fatal("malformed URL accepted")
	}
}

// TestClientClear: a new client holds nothing — no map, no copies — while
// the one that visited keeps serving from its own.
func TestClientClear(t *testing.T) {
	base, srv, done := clientWorld(t)
	defer done()
	c := NewClient(nil)
	for _, p := range []string{"/index.html", "/s.css", "/index.html"} {
		if _, err := c.Get(base + p); err != nil {
			t.Fatal(err)
		}
	}
	before := srv.Metrics.Requests.Load()
	css, err := NewClient(nil).Get(base + "/s.css")
	if err != nil {
		t.Fatal(err)
	}
	if css.Source != "network" || srv.Metrics.Requests.Load()-before != 1 {
		t.Fatalf("new client served from %s", css.Source)
	}
	if css, err = c.Get(base + "/s.css"); err != nil {
		t.Fatal(err)
	}
	if css.Source != "cache" {
		t.Fatalf("visiting client served from %s", css.Source)
	}
}

// TestClientScopesMapsPerOrigin (PROTOCOL.md §6): two origins serve the
// same path under the same tag, and A's map never lets B's copy be served
// from cache — B has delivered no map.
func TestClientScopesMapsPerOrigin(t *testing.T) {
	baseA, _, doneA := clientWorld(t)
	defer doneA()
	baseB, srvB, doneB := clientWorld(t)
	defer doneB()
	c := NewClient(nil)
	for _, u := range []string{baseA + "/index.html", baseA + "/s.css", baseB + "/s.css"} {
		if _, err := c.Get(u); err != nil {
			t.Fatal(err)
		}
	}
	a, err := c.Get(baseA + "/s.css")
	if err != nil {
		t.Fatal(err)
	}
	if a.Source != "cache" {
		t.Fatalf("A's stylesheet served from %s, want cache", a.Source)
	}
	b, err := c.Get(baseB + "/s.css")
	if err != nil {
		t.Fatal(err)
	}
	if b.Source == "cache" {
		t.Fatal("A's map served B's stylesheet from cache")
	}
	if got := srvB.Metrics.Requests.Load(); got != 2 {
		t.Fatalf("B saw %d requests, want 2", got)
	}
}

// TestClientResponsesAreCallerOwned: writing into a returned response's
// body or header does not reach the cache, so the next "cache" answer is
// unchanged.
func TestClientResponsesAreCallerOwned(t *testing.T) {
	base, _, done := clientWorld(t)
	defer done()
	c := NewClient(nil)
	spoil := func(r *ClientResponse) {
		copy(r.Body, "XXXX")
		r.Header.Set("Etag", `"spoiled"`)
		r.Header.Set("X-Spoiled", "1")
	}
	for _, p := range []string{"/index.html", "/s.css", "/index.html", "/s.css"} {
		r, err := c.Get(base + p)
		if err != nil {
			t.Fatal(err)
		}
		spoil(r)
	}
	css, err := c.Get(base + "/s.css")
	if err != nil {
		t.Fatal(err)
	}
	if css.Source != "cache" || string(css.Body) != "body{}" || css.Header.Get("X-Spoiled") != "" || css.Header.Get("Etag") == `"spoiled"` {
		t.Fatalf("cache answer changed by its callers: %s %q %v", css.Source, css.Body, css.Header)
	}
}

// TestClientTimeoutIsAClearErrorNotAHang: GetContext's deadline bounds a
// Get against a stalled origin; the client adds no budget of its own.
func TestClientTimeoutIsAClearErrorNotAHang(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select { // a stalled origin: headers never arrive
		case <-r.Context().Done():
		case <-release:
		}
	}))
	defer ts.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := NewClient(nil).GetContext(ctx, ts.URL+"/hang")
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want a deadline error", err)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("Get hung for %v", elapsed)
	}
}

// TestClientDoesNotRetry4xx: a 404 is a response, not an error — one
// request, StatusCode 404.
func TestClientDoesNotRetry4xx(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.NotFound(w, r)
	}))
	defer ts.Close()

	resp, err := NewClient(nil).Get(ts.URL + "/gone")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 404 || resp.Source != "network" || calls.Load() != 1 {
		t.Fatalf("status %d, source %s after %d calls", resp.StatusCode, resp.Source, calls.Load())
	}
}

// stubTransport answers every request from the function, with no network.
type stubTransport func(*http.Request) *http.Response

func (f stubTransport) RoundTrip(r *http.Request) (*http.Response, error) { return f(r), nil }

func stubResponse(status int, h http.Header, body string) *http.Response {
	return &http.Response{StatusCode: status, Header: h, Body: io.NopCloser(strings.NewReader(body))}
}

// TestClient304DropsHopByHopFields: a 304 refreshes the stored response per
// RFC 9111 §4.3.4, but the fields that describe its own connection and its
// own empty body never land in the cache.
func TestClient304DropsHopByHopFields(t *testing.T) {
	c := NewClient(&http.Client{Transport: stubTransport(func(r *http.Request) *http.Response {
		if r.Header.Get("If-None-Match") == `"v1"` {
			return stubResponse(http.StatusNotModified, http.Header{
				"Etag":           {`"v1"`},
				"Cache-Control":  {"max-age=60"},
				"Connection":     {"keep-alive"},
				"Keep-Alive":     {"timeout=5"},
				"Content-Length": {"0"},
			}, "")
		}
		return stubResponse(http.StatusOK, http.Header{
			"Etag":           {`"v1"`},
			"Content-Type":   {"text/css"},
			"Content-Length": {"6"},
		}, "body{}")
	})})
	if _, err := c.Get("http://site.test/a.css"); err != nil {
		t.Fatal(err)
	}
	resp, err := c.Get("http://site.test/a.css")
	if err != nil {
		t.Fatal(err)
	}
	if resp.Source != "revalidated" || string(resp.Body) != "body{}" {
		t.Fatalf("second Get: source %q body %q, want a revalidated body{}", resp.Source, resp.Body)
	}
	if got := resp.Header.Get("Cache-Control"); got != "max-age=60" {
		t.Errorf("Cache-Control = %q, want the 304's max-age=60", got)
	}
	if got := resp.Header.Get("Content-Length"); got != "6" {
		t.Errorf("Content-Length = %q, want the stored 6", got)
	}
	for _, k := range []string{"Connection", "Keep-Alive"} {
		if v := resp.Header.Values(k); len(v) != 0 {
			t.Errorf("hop-by-hop %s: %q was stored from the 304", k, v)
		}
	}
}

// TestClientHonorsNoStoreInAnyCase: Cache-Control directives are
// case-insensitive, so a No-Store 200 is not cached, and the next Get
// is unconditional.
func TestClientHonorsNoStoreInAnyCase(t *testing.T) {
	var inm []string
	c := NewClient(&http.Client{Transport: stubTransport(func(r *http.Request) *http.Response {
		inm = append(inm, r.Header.Get("If-None-Match"))
		return stubResponse(http.StatusOK, http.Header{"Etag": {`"v1"`}, "Cache-Control": {"No-Store"}}, "secret")
	})})
	for i := 0; i < 2; i++ {
		if _, err := c.Get("http://site.test/account"); err != nil {
			t.Fatal(err)
		}
	}
	if len(inm) != 2 || inm[1] != "" {
		t.Fatalf("a No-Store response was cached: the second Get sent If-None-Match %q", inm[len(inm)-1])
	}
}
