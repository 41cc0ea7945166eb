//go:build !race

// The race detector's instrumentation allocates, so these pins only hold
// in plain builds; the -race suite still runs the same paths for safety.

package server

import (
	"net/http"
	"net/http/httptest"
	"testing"
)

// TestWarmServeAllocFree pins the tentpole bar for the origin's hot paths:
// a warm non-HTML serve and a warm conditional 304 allocate nothing —
// every header value is a precomputed shared slice, the Date string is
// cached per second, and the decision plumbing is closure-free. Nor does a
// warm catalyst page, 200 or 304: the render comes from the cache by the
// page URL, and the ETag map from the render's slot — verified, not rebuilt —
// as a shared header slice.
func TestWarmServeAllocFree(t *testing.T) {
	s := New(benchContent(), Options{Catalyst: true})

	static := httptest.NewRequest("GET", "/a.png", nil)
	w := &nullWriter{h: make(http.Header)}
	s.ServeHTTP(w, static) // build the per-Resource header cache
	if got := testing.AllocsPerRun(200, func() { s.ServeHTTP(w, static) }); got > 0 {
		t.Errorf("warm static serve allocates %.1f times per request, want 0", got)
	}

	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("GET", "/a.png", nil))
	cond := httptest.NewRequest("GET", "/a.png", nil)
	cond.Header.Set("If-None-Match", rec.Header().Get("Etag"))
	if got := testing.AllocsPerRun(200, func() { s.ServeHTTP(w, cond) }); got > 0 {
		t.Errorf("warm 304 serve allocates %.1f times per request, want 0", got)
	}

	// A page of realistic fan-out, so a per-reference allocation would show.
	s = New(siteContent(), Options{Catalyst: true})
	page := httptest.NewRequest("GET", "/", nil)
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, page) // render, resolve, fill the slot
	if got := testing.AllocsPerRun(200, func() { s.ServeHTTP(w, page) }); got > 0 {
		t.Errorf("warm HTML serve allocates %.1f times per request, want 0", got)
	}
	pageCond := httptest.NewRequest("GET", "/", nil)
	pageCond.Header.Set("If-None-Match", rec.Header().Get("Etag"))
	if got := testing.AllocsPerRun(200, func() { s.ServeHTTP(w, pageCond) }); got > 0 {
		t.Errorf("warm HTML 304 allocates %.1f times per request, want 0", got)
	}
	if built := s.Metrics.MapsBuilt.Load(); built != 1 {
		t.Errorf("%d resolves over unchanged content, want the first request's only", built)
	}
}
