package browser

import (
	"testing"

	"cachecatalyst/internal/netsim"
)

// TestStoresShareOriginBodies pins the zero-copy path: after a catalyst cold
// load through server.NewOrigin, the body the HTTP cache holds and the body
// the Service Worker's CacheStorage holds for each subresource are the
// Resource's own bytes, not copies of them.
func TestStoresShareOriginBodies(t *testing.T) {
	w := newWorld(true)
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
		e, ok := b.cache.Peek(cacheKey("site.example", p))
		if !ok {
			t.Fatalf("%s: not in the HTTP cache", p)
		}
		if string(e.Response.Body) != string(res.Body) || &e.Response.Body[0] != &res.Body[0] {
			t.Errorf("%s: the HTTP cache holds a copy of the Resource's body", p)
		}
		sr, ok := worker.Cache().Match(p)
		if !ok {
			t.Fatalf("%s: not in the worker's CacheStorage", p)
		}
		if string(sr.Body) != string(res.Body) || &sr.Body[0] != &res.Body[0] {
			t.Errorf("%s: CacheStorage holds a copy of the Resource's body", p)
		}
	}
}
