package catalyst

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"net/http/httptrace"
	"net/textproto"
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

// TestMiddlewareEarlyHints drives the 103 through a real HTTP server:
// httptest.ResponseRecorder records only the first status line, so the
// informational response is only observable over a socket, via the
// client-side Got1xxResponse trace hook.
func TestMiddlewareEarlyHints(t *testing.T) {
	h := Middleware(innerSite(), MiddlewareOptions{EarlyHints: true})
	mm := metricsOf(h)
	ts := httptest.NewServer(h)
	defer ts.Close()

	var hintCode int
	var links []string
	trace := &httptrace.ClientTrace{
		Got1xxResponse: func(code int, header textproto.MIMEHeader) error {
			if code == http.StatusEarlyHints {
				hintCode = code
				links = append(links, header["Link"]...)
			}
			return nil
		},
	}
	req, err := http.NewRequestWithContext(
		httptrace.WithClientTrace(context.Background(), trace), "GET", ts.URL+"/", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()

	if hintCode != http.StatusEarlyHints {
		t.Fatalf("no 103 observed (code %d)", hintCode)
	}
	joined := strings.Join(links, "\n")
	if !strings.Contains(joined, "</style.css>; rel=preload; as=style") {
		t.Errorf("hints missing stylesheet preload: %q", joined)
	}
	if !strings.Contains(joined, "</logo.png>; rel=preload; as=image") {
		t.Errorf("hints missing image preload: %q", joined)
	}
	if resp.StatusCode != 200 {
		t.Fatalf("final status = %d", resp.StatusCode)
	}
	if !strings.Contains(string(body), RegistrationSnippet) {
		t.Error("final response not decorated")
	}
	if resp.Header.Get(HeaderName) == "" {
		t.Error("final response missing the map header")
	}
	if mm.HintsSent.Load() != 1 {
		t.Errorf("HintsSent = %d, want 1", mm.HintsSent.Load())
	}

	// Non-HTML responses pass through un-hinted.
	req2, err := http.NewRequestWithContext(
		httptrace.WithClientTrace(context.Background(), trace), "GET", ts.URL+"/api/data", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp2, err := ts.Client().Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if mm.HintsSent.Load() != 1 {
		t.Errorf("HintsSent = %d after non-HTML request, want still 1", mm.HintsSent.Load())
	}
}
