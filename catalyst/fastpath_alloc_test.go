//go:build !race

// The warm-path allocation pin lives behind !race: the race detector's
// instrumentation allocates on its own, which would fail the ≤1 budget for
// reasons unrelated to the serve path.

package catalyst

import (
	"net/http"
	"net/http/httptest"
	"testing"
)

// TestWarmHitAllocations pins the warm fast lane's allocation budget: once
// a page's render, hot pin, and map encoding are cached, a serve allocates
// at most once — and that one is the inner handler's own Content-Type Set,
// not the middleware's. Regressions here are exactly the per-request
// garbage the fast-lane refactor removed (sniff buffers, header encodes,
// span closures, request clones).
func TestWarmHitAllocations(t *testing.T) {
	h := tuned(site50(0), MiddlewareOptions{}, withStoppedClock())
	// The first request warms probes and render and slots the map; the
	// second reuses it.
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/", nil))
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/", nil))
	req := httptest.NewRequest("GET", "/", nil)
	w := &discardWriter{h: make(http.Header)}
	h.ServeHTTP(w, req) // settle the writer pool and response header buckets
	if n := testing.AllocsPerRun(200, func() { h.ServeHTTP(w, req) }); n > 1 {
		t.Fatalf("warm hit allocates %.1f/op, want at most 1", n)
	}
}

// TestWarmRevalidatedHitAllocations pins the held page's 304 path: the inner
// handler is asked with If-None-Match and answers 304, and the held render is
// served. Its budget is the inner handler's two header Sets plus the 304
// merge's one value array, with one to spare; what it must not grow back is a
// request Clone or an If-None-Match value built per request.
func TestWarmRevalidatedHitAllocations(t *testing.T) {
	h := tuned(churnPage(0), MiddlewareOptions{}, withStoppedClock())
	m := h.(*middleware)
	req := httptest.NewRequest("GET", "/", nil)
	w := &discardWriter{h: make(http.Header)}
	// Fill the caches, hold the page, pin the encoding.
	for i := 0; i < 3; i++ {
		h.ServeHTTP(w, req)
	}
	before := m.metrics.PageRevalidated.Load()
	n := testing.AllocsPerRun(200, func() { h.ServeHTTP(w, req) })
	if got := m.metrics.PageRevalidated.Load() - before; got < 200 {
		t.Fatalf("%d of the measured serves revalidated the page, want all", got)
	}
	if n > 4 {
		t.Fatalf("revalidated warm hit allocates %.1f/op, want at most 4", n)
	}
	t.Logf("revalidated warm hit: %.1f allocs/op", n)
}
