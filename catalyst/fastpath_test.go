package catalyst

import (
	"net/http"
	"net/http/httptest"
	"testing"
)

// TestWarmHitServesIdenticalResponse proves the fast lane is a pure
// shortcut: the third (fully warm — render hit, cached encoding, pooled
// writer all engaged) response is byte-identical to the first full render,
// headers included.
func TestWarmHitServesIdenticalResponse(t *testing.T) {
	h := tuned(site50(0), MiddlewareOptions{}, withStoppedClock())
	recs := make([]*httptest.ResponseRecorder, 4)
	for i := range recs {
		recs[i] = httptest.NewRecorder()
		h.ServeHTTP(recs[i], httptest.NewRequest("GET", "/", nil))
	}
	base := recs[0]
	for i, rec := range recs[1:] {
		if rec.Body.String() != base.Body.String() {
			t.Fatalf("serve %d: body diverged from the cold render", i+1)
		}
		for _, k := range []string{"Etag", HeaderName, "Content-Length", "Content-Type"} {
			if rec.Header().Get(k) != base.Header().Get(k) {
				t.Fatalf("serve %d: header %s = %q, cold render had %q",
					i+1, k, rec.Header().Get(k), base.Header().Get(k))
			}
		}
	}
	// And the conditional answer still works against the warm lane.
	req := httptest.NewRequest("GET", "/", nil)
	req.Header.Set("If-None-Match", base.Header().Get("Etag"))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusNotModified {
		t.Fatalf("warm conditional revisit = %d, want 304", rec.Code)
	}
	if rec.Body.Len() != 0 {
		t.Fatal("304 carried a body")
	}
}
