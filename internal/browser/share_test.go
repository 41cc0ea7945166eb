package browser

import (
	"reflect"
	"testing"

	"cachecatalyst/internal/httpcache"
	"cachecatalyst/internal/netsim"
)

// headerRecorder keeps the header map of every response its origin hands
// out, by request path.
type headerRecorder struct {
	inner   netsim.Origin
	headers map[string]uintptr
}

func (o *headerRecorder) RoundTrip(req *netsim.Request) *httpcache.Response {
	resp := o.inner.RoundTrip(req)
	o.headers[req.Path] = reflect.ValueOf(resp.Header).Pointer()
	return resp
}

// TestStoresShareOriginBodies pins the zero-copy path: after a catalyst cold
// load through server.NewOrigin, the HTTP cache and the Service Worker's
// CacheStorage each hold, for each subresource, the Resource's own body
// bytes and the origin adapter's own header map, not copies of them.
func TestStoresShareOriginBodies(t *testing.T) {
	w := newWorld(true)
	rec := &headerRecorder{inner: w.origins["site.example"], headers: make(map[string]uintptr)}
	w.origins["site.example"] = rec
	b := New(w.clock, Catalyst, netsim.TransportOptions{})
	mustLoad(t, b, w)
	worker, ok := b.registry.Lookup("site.example")
	if !ok {
		t.Fatal("no worker registered after the catalyst cold load")
	}
	for _, p := range []string{"/a.css", "/b.js", "/c.js", "/d.jpg"} {
		res, ok := w.content.Get(p)
		if !ok {
			t.Fatalf("%s: not in the site", p)
		}
		sent, ok := rec.headers[p]
		if !ok {
			t.Fatalf("%s: the origin never answered it", p)
		}
		e, ok := b.cache.Peek(cacheKey("site.example", p))
		if !ok {
			t.Fatalf("%s: not in the HTTP cache", p)
		}
		if string(e.Response.Body) != string(res.Body) || &e.Response.Body[0] != &res.Body[0] {
			t.Errorf("%s: the HTTP cache holds a copy of the Resource's body", p)
		}
		if reflect.ValueOf(e.Response.Header).Pointer() != sent {
			t.Errorf("%s: the HTTP cache holds a copy of the origin's header", p)
		}
		sr, ok := worker.Cache().Match(p)
		if !ok {
			t.Fatalf("%s: not in the worker's CacheStorage", p)
		}
		if string(sr.Body) != string(res.Body) || &sr.Body[0] != &res.Body[0] {
			t.Errorf("%s: CacheStorage holds a copy of the Resource's body", p)
		}
		if reflect.ValueOf(sr.Header).Pointer() != sent {
			t.Errorf("%s: CacheStorage holds a copy of the origin's header", p)
		}
	}
}
