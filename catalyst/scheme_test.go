package catalyst

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"cachecatalyst/internal/delta"
)

// swapSite is innerSite with a mutable HTML body, for exercising the
// delta path: the page must actually change between requests.
func swapSite(cur *atomic.Value) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/{$}", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		_, _ = io.WriteString(w, cur.Load().(string))
	})
	mux.HandleFunc("/style.css", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/css; charset=utf-8")
		_, _ = io.WriteString(w, `body { color: red }`)
	})
	return mux
}

func TestMiddlewareDeltaRoundTrip(t *testing.T) {
	page := `<html><head><link rel="stylesheet" href="/style.css"></head><body>version one of a page body long enough that a patch is worth serving</body></html>`
	var cur atomic.Value
	cur.Store(page)
	h := Middleware(swapSite(&cur), MiddlewareOptions{Delta: true})
	mm := metricsOf(h)

	// First visit: full body, validator names the base the client now holds.
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/", nil))
	if rec.Code != 200 {
		t.Fatalf("cold status = %d", rec.Code)
	}
	baseTag := rec.Header().Get("Etag")
	if baseTag == "" {
		t.Fatal("no validator on first response")
	}
	baseBody := append([]byte(nil), rec.Body.Bytes()...)

	// Page changes; the revisit names its base and gets a patch back.
	cur.Store(strings.Replace(page, "version one", "version two", 1))
	req := httptest.NewRequest("GET", "/", nil)
	req.Header.Set(delta.RequestHeader, baseTag)
	rec2 := httptest.NewRecorder()
	h.ServeHTTP(rec2, req)
	if rec2.Code != 200 {
		t.Fatalf("delta status = %d", rec2.Code)
	}
	if got := rec2.Header().Get(delta.FromHeader); got != baseTag {
		t.Fatalf("%s = %q, want base tag %q", delta.FromHeader, got, baseTag)
	}
	patch := rec2.Body.Bytes()
	full, err := delta.Apply(baseBody, patch)
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if !strings.Contains(string(full), "version two") {
		t.Error("patched body missing updated content")
	}
	if !strings.Contains(string(full), RegistrationSnippet) {
		t.Error("patched body missing injected snippet")
	}
	if len(patch) >= len(full) {
		t.Errorf("patch (%d bytes) not smaller than full body (%d bytes)", len(patch), len(full))
	}
	if got := mm.DeltasServed.Load(); got != 1 {
		t.Errorf("DeltasServed = %d, want 1", got)
	}
	if got, want := mm.DeltaBytesSaved.Load(), int64(len(full)-len(patch)); got != want {
		t.Errorf("DeltaBytesSaved = %d, want %d", got, want)
	}

	// An unknown base cannot be patched against: full body, no patch header.
	req3 := httptest.NewRequest("GET", "/", nil)
	req3.Header.Set(delta.RequestHeader, `"no-such-base"`)
	rec3 := httptest.NewRecorder()
	h.ServeHTTP(rec3, req3)
	if rec3.Header().Get(delta.FromHeader) != "" {
		t.Error("patch served against unknown base")
	}
	if !strings.Contains(rec3.Body.String(), "version two") {
		t.Error("fallback response is not the full body")
	}
}

// TestMiddlewareDeltaLosesTo304 pins the precedence: when the client's base
// IS the current entity, the conditional GET answers 304 and no patch is
// built — a delta can never beat transferring nothing.
func TestMiddlewareDeltaLosesTo304(t *testing.T) {
	page := `<html><body>stable page</body></html>`
	var cur atomic.Value
	cur.Store(page)
	h := Middleware(swapSite(&cur), MiddlewareOptions{Delta: true})
	mm := metricsOf(h)

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/", nil))
	tag := rec.Header().Get("Etag")

	req := httptest.NewRequest("GET", "/", nil)
	req.Header.Set("If-None-Match", tag)
	req.Header.Set(delta.RequestHeader, tag)
	rec2 := httptest.NewRecorder()
	h.ServeHTTP(rec2, req)
	if rec2.Code != http.StatusNotModified {
		t.Fatalf("status = %d, want 304", rec2.Code)
	}
	if rec2.Header().Get(delta.FromHeader) != "" {
		t.Error("304 carries a delta header")
	}
	if mm.DeltasServed.Load() != 0 {
		t.Errorf("DeltasServed = %d on an unchanged page", mm.DeltasServed.Load())
	}
}
