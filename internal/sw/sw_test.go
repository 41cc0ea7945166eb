package sw

import (
	"fmt"
	"net/http"
	"reflect"
	"testing"
	"testing/quick"

	"cachecatalyst/internal/core"
	"cachecatalyst/internal/etag"
	"cachecatalyst/internal/httpcache"
)

func resp(tag string, body string, extra map[string]string) *httpcache.Response {
	h := make(http.Header)
	if tag != "" {
		h.Set("Etag", etag.Tag{Opaque: tag}.String())
	}
	for k, v := range extra {
		h.Set(k, v)
	}
	return &httpcache.Response{StatusCode: 200, Header: h, Body: []byte(body)}
}

func navResp(m core.ETagMap) *httpcache.Response {
	h := make(http.Header)
	h.Set(core.HeaderName, m.Encode())
	return &httpcache.Response{StatusCode: 200, Header: h, Body: []byte("<html>")}
}

func TestCacheStoragePutMatch(t *testing.T) {
	c := NewCacheStorage()
	c.Put("/a", resp("v1", "body", nil))
	got, ok := c.Match("/a")
	if !ok || string(got.Body) != "body" {
		t.Fatalf("Match = %+v, %v", got, ok)
	}
	if c.Len() != 1 {
		t.Fatalf("Len=%d", c.Len())
	}
}

func TestCacheStorageRejectsNoStore(t *testing.T) {
	c := NewCacheStorage()
	c.Put("/a", resp("v1", "x", map[string]string{"Cache-Control": "no-store"}))
	if _, ok := c.Match("/a"); ok {
		t.Fatal("no-store response cached")
	}
}

func TestCacheStorageRejectsNon200(t *testing.T) {
	c := NewCacheStorage()
	r := resp("", "missing", nil)
	r.StatusCode = 404
	c.Put("/a", r)
	if c.Len() != 0 {
		t.Fatal("404 cached")
	}
}

func TestCacheStorageRejectsTruncated(t *testing.T) {
	c := NewCacheStorage()
	r := resp("v1", "half-a-bo", nil)
	r.Truncated = true
	c.Put("/a", r)
	if c.Len() != 0 {
		t.Fatal("truncated body cached")
	}
	// A truncated replacement must not clobber the intact entry either.
	c.Put("/b", resp("v1", "whole", nil))
	c.Put("/b", r)
	if got, ok := c.Match("/b"); !ok || string(got.Body) != "whole" {
		t.Fatal("truncated body replaced an intact entry")
	}
}

func resp404() *httpcache.Response {
	return &httpcache.Response{
		StatusCode: http.StatusNotFound,
		Header:     http.Header{"Content-Type": {"text/plain"}},
		Body:       []byte("404 page not found\n"),
	}
}

// TestWorkerNegativeDisabledByDefault: a worker does not remember 404s, so
// the next fetch of a missing path goes to the network.
func TestWorkerNegativeDisabledByDefault(t *testing.T) {
	w := NewWorker()
	w.OnSubresourceResponse("/missing.png", resp404())
	if _, ok := w.HandleFetch("/missing.png"); ok {
		t.Fatal("a 404 was served locally")
	}
	if st := w.Stats(); st.NetworkFetches != 1 {
		t.Fatalf("NetworkFetches = %d, want 1", st.NetworkFetches)
	}
}

func TestWorkerNegativeIgnoresTruncated404(t *testing.T) {
	w := NewWorker()
	tr := resp404()
	tr.Truncated = true
	w.OnSubresourceResponse("/x", tr)
	if _, ok := w.HandleFetch("/x"); ok {
		t.Fatal("a truncated 404 was served locally")
	}
}

func TestCacheStorageReplaceAccountsBytes(t *testing.T) {
	c := NewCacheStorage()
	c.Put("/a", resp("v1", "0123456789", nil))
	c.Put("/a", resp("v2", "xyz", nil))
	if got, _ := c.Match("/a"); c.Len() != 1 || string(got.Body) != "xyz" {
		t.Fatalf("Len=%d, stored body %q after the replacement", c.Len(), got.Body)
	}
}

// TestCacheStoragePutSharesResponse: the store keeps the response it was
// handed, header map and body array included, since no one writes either
// after it enters a Response.
func TestCacheStoragePutSharesResponse(t *testing.T) {
	c := NewCacheStorage()
	r := resp("v1", "orig", map[string]string{"Cache-Control": "max-age=60"})
	c.Put("/a", r)
	got, _ := c.Match("/a")
	if got != r || reflect.ValueOf(got.Header).UnsafePointer() != reflect.ValueOf(r.Header).UnsafePointer() {
		t.Fatal("Put stored a copy of the response or its header")
	}
	if &got.Body[0] != &r.Body[0] {
		t.Fatal("Put copied the body")
	}
}

func TestWorkerNavigationCapturesMap(t *testing.T) {
	w := NewWorker()
	m := core.ETagMap{"/a.css": {Opaque: "v1"}}
	w.OnNavigationResponse(navResp(m))
	if got, ok := w.ETagMap().Get("/a.css"); !ok || got.Opaque != "v1" {
		t.Fatalf("map not captured: %v %v", got, ok)
	}
	if w.Stats().MapUpdates != 1 {
		t.Fatal("MapUpdates not counted")
	}
}

func TestWorkerNavigationWithoutHeaderKeepsMap(t *testing.T) {
	w := NewWorker()
	w.OnNavigationResponse(navResp(core.ETagMap{"/a": {Opaque: "1"}}))
	plain := &httpcache.Response{StatusCode: 200, Header: make(http.Header)}
	w.OnNavigationResponse(plain)
	if _, ok := w.ETagMap().Get("/a"); !ok {
		t.Fatal("map dropped on header-less navigation")
	}
}

func TestWorkerNavigationBadMapIgnored(t *testing.T) {
	w := NewWorker()
	w.OnNavigationResponse(navResp(core.ETagMap{"/a": {Opaque: "1"}}))
	bad := &httpcache.Response{StatusCode: 200, Header: make(http.Header)}
	bad.Header.Set(core.HeaderName, "{malformed")
	w.OnNavigationResponse(bad)
	if _, ok := w.ETagMap().Get("/a"); !ok {
		t.Fatal("malformed map clobbered a good one")
	}
	if w.Stats().MapDecodeFailures != 1 {
		t.Fatalf("decode failures = %d, want 1", w.Stats().MapDecodeFailures)
	}
}

func TestWorkerDegradesWhenEveryMapIsCorrupt(t *testing.T) {
	// A worker that has only ever seen corrupted maps behaves exactly
	// like conventional caching: fetches go to the network, loads never
	// fail, and the cached-but-unproven copy is not served.
	w := NewWorker()
	bad := &httpcache.Response{StatusCode: 200, Header: make(http.Header)}
	bad.Header.Set(core.HeaderName, `{"/a.css":"\"v1`) // truncated mid-value
	w.OnNavigationResponse(bad)
	w.OnSubresourceResponse("/a.css", resp("v1", "css", nil))
	if _, ok := w.HandleFetch("/a.css"); ok {
		t.Fatal("served from cache with no decodable map ever delivered")
	}
	if st := w.Stats(); st.MapDecodeFailures != 1 || st.MapUpdates != 0 || st.NetworkFetches != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestWorkerServesMatchingCachedResource(t *testing.T) {
	w := NewWorker()
	w.OnSubresourceResponse("/a.css", resp("v1", "css-body", nil))
	w.OnNavigationResponse(navResp(core.ETagMap{"/a.css": {Opaque: "v1"}}))

	got, ok := w.HandleFetch("/a.css")
	if !ok || string(got.Body) != "css-body" {
		t.Fatalf("HandleFetch = %+v, %v", got, ok)
	}
	if w.Stats().LocalHits != 1 || w.Stats().NetworkFetches != 0 {
		t.Fatalf("stats = %+v", w.Stats())
	}
}

func TestWorkerFetchesOnTagMismatch(t *testing.T) {
	w := NewWorker()
	w.OnSubresourceResponse("/a.css", resp("v1", "old", nil))
	w.OnNavigationResponse(navResp(core.ETagMap{"/a.css": {Opaque: "v2"}}))

	if _, ok := w.HandleFetch("/a.css"); ok {
		t.Fatal("stale resource served from cache")
	}
	// Network returns the new version; worker must re-cache it.
	w.OnSubresourceResponse("/a.css", resp("v2", "new", nil))
	got, ok := w.HandleFetch("/a.css")
	if !ok || string(got.Body) != "new" {
		t.Fatalf("updated resource not served: %+v, %v", got, ok)
	}
}

func TestWorkerFetchesWhenMapLacksPath(t *testing.T) {
	w := NewWorker()
	w.OnSubresourceResponse("/dyn.js", resp("v1", "x", nil))
	w.OnNavigationResponse(navResp(core.ETagMap{})) // empty map
	if _, ok := w.HandleFetch("/dyn.js"); ok {
		t.Fatal("served resource not covered by the map")
	}
}

func TestWorkerFetchesOnCacheMiss(t *testing.T) {
	w := NewWorker()
	w.OnNavigationResponse(navResp(core.ETagMap{"/a.css": {Opaque: "v1"}}))
	if _, ok := w.HandleFetch("/a.css"); ok {
		t.Fatal("served a resource that was never cached")
	}
	if w.Stats().NetworkFetches != 1 {
		t.Fatalf("stats = %+v", w.Stats())
	}
}

func TestWorkerCachedResponseWithoutETagNotServed(t *testing.T) {
	w := NewWorker()
	w.OnSubresourceResponse("/a.css", resp("", "untagged", nil))
	w.OnNavigationResponse(navResp(core.ETagMap{"/a.css": {Opaque: "v1"}}))
	if _, ok := w.HandleFetch("/a.css"); ok {
		t.Fatal("served an untagged cached response")
	}
}

type fakeSiteWorker struct {
	claims map[string]*httpcache.Response
}

func (f *fakeSiteWorker) HandleFetch(path string) (*httpcache.Response, bool) {
	r, ok := f.claims[path]
	return r, ok
}

func TestCoexistenceWithSiteWorker(t *testing.T) {
	offline := resp("", "offline page", nil)
	site := &fakeSiteWorker{claims: map[string]*httpcache.Response{"/app-shell": offline}}
	w := NewWorker().WithSiteWorker(site)
	w.OnSubresourceResponse("/app-shell", resp("v1", "cached", nil))
	w.OnNavigationResponse(navResp(core.ETagMap{"/app-shell": {Opaque: "v1"}}))

	got, ok := w.HandleFetch("/app-shell")
	if !ok || string(got.Body) != "offline page" {
		t.Fatalf("site worker not consulted first: %+v", got)
	}
	if w.Stats().DelegatedFetches != 1 {
		t.Fatalf("stats = %+v", w.Stats())
	}
	// Paths the site worker does not claim fall through to catalyst logic.
	w.OnSubresourceResponse("/a.css", resp("v1", "css", nil))
	w.OnNavigationResponse(navResp(core.ETagMap{"/a.css": {Opaque: "v1"}}))
	if _, ok := w.HandleFetch("/a.css"); !ok {
		t.Fatal("catalyst logic bypassed for unclaimed path")
	}
}

func TestRegistryDomainScoping(t *testing.T) {
	r := NewRegistry()
	wa := r.Register("a.example")
	wb := r.Register("b.example")
	if wa == wb {
		t.Fatal("origins share a worker")
	}
	wa.OnSubresourceResponse("/x", resp("v1", "a-body", nil))
	if _, ok := wb.Cache().Match("/x"); ok {
		t.Fatal("cache leaked across origins")
	}
	if again := r.Register("a.example"); again != wa {
		t.Fatal("re-registration replaced the worker")
	}
	if _, ok := r.Lookup("a.example"); !ok {
		t.Fatal("lookup failed")
	}
	if _, ok := r.Lookup("nope.example"); ok || r.Len() != 2 {
		t.Fatal("lookup invented a worker")
	}
}

// Property (the paper's safety invariant): the worker never serves a body
// whose ETag differs from the proactively delivered current tag.
func TestWorkerNeverServesStaleQuick(t *testing.T) {
	f := func(vCached, vCurrent uint8) bool {
		w := NewWorker()
		path := "/r.js"
		cachedTag := etag.ForVersion(path, uint64(vCached))
		currentTag := etag.ForVersion(path, uint64(vCurrent))
		body := fmt.Sprintf("body-%d", vCached)
		h := make(http.Header)
		h.Set("Etag", cachedTag.String())
		w.OnSubresourceResponse(path, &httpcache.Response{StatusCode: 200, Header: h, Body: []byte(body)})
		w.OnNavigationResponse(navResp(core.ETagMap{path: currentTag}))
		got, ok := w.HandleFetch(path)
		if vCached == vCurrent {
			return ok && string(got.Body) == body
		}
		return !ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
