package catalyst

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"cachecatalyst/internal/vclock"
)

// --- middleware resilience --------------------------------------------

func TestMiddlewareRecoversPanics(t *testing.T) {
	inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/boom" {
			panic("handler bug")
		}
		w.Header().Set("Content-Type", "text/plain")
		fmt.Fprint(w, "ok")
	})
	h := Middleware(inner, MiddlewareOptions{})
	metrics := metricsOf(h)

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/boom", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("panicking handler answered %d, want 500", rec.Code)
	}
	// The server keeps serving after the panic.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/fine", nil))
	if rec.Code != 200 || rec.Body.String() != "ok" {
		t.Fatalf("healthy path broken after panic: %d %q", rec.Code, rec.Body.String())
	}
	// Non-GET panics are recovered too.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/boom", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("POST panic answered %d", rec.Code)
	}
	if got := metrics.PanicsRecovered.Load(); got != 2 {
		t.Fatalf("panics recovered = %d, want 2", got)
	}
}

func TestMiddlewareProbeCircuitBreaker(t *testing.T) {
	var cssCalls atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("/page.html", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/html")
		fmt.Fprint(w, `<html><head><link rel="stylesheet" href="/flaky.css"></head></html>`)
	})
	mux.HandleFunc("/flaky.css", func(w http.ResponseWriter, r *http.Request) {
		cssCalls.Add(1)
		http.Error(w, "db down", http.StatusInternalServerError)
	})
	clk := vclock.NewVirtual(vclock.Epoch)
	h := tuned(mux, MiddlewareOptions{}, withClock(clk))
	metrics := metricsOf(h)

	loadPage := func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/page.html", nil))
		if rec.Code != 200 {
			t.Fatalf("page load failed: %d", rec.Code)
		}
		if rec.Header().Get(HeaderName) != "{}" {
			t.Fatalf("erroring subresource leaked into map: %q", rec.Header().Get(HeaderName))
		}
	}
	for i := 0; i < breakerThreshold+2; i++ {
		loadPage()
		clk.Advance(probeTTL) // every page load re-probes
	}
	// breakerThreshold probes trip the breaker; the remaining two loads,
	// well inside its cooldown, are shielded.
	if got := cssCalls.Load(); got != breakerThreshold {
		t.Fatalf("probe calls = %d, want %d (breaker did not open)", got, breakerThreshold)
	}
	if got := metrics.BreakerTrips.Load(); got != 1 {
		t.Fatalf("breaker trips = %d, want 1", got)
	}
}

func TestMiddlewareProbeCacheBounded(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, ".html") {
			w.Header().Set("Content-Type", "text/html")
			// Each page references its own distinct subresource — the
			// crawler-over-many-paths scenario that used to leak.
			fmt.Fprintf(w, `<html><body><img src="/img%s.png"></body></html>`, strings.TrimSuffix(r.URL.Path, ".html"))
			return
		}
		w.Header().Set("Content-Type", "image/png")
		fmt.Fprint(w, "PNG")
	})
	h := tuned(mux, MiddlewareOptions{}, withMaxProbeEntries(8))
	for i := 0; i < 100; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", fmt.Sprintf("/p%d.html", i), nil))
		if rec.Code != 200 {
			t.Fatalf("load %d: %d", i, rec.Code)
		}
	}
	m := h.(*middleware)
	if size := m.def.probes.Len(); size > 8 {
		t.Fatalf("probe cache grew to %d entries, cap 8", size)
	}
	if m.def.probes.Counters().Evictions == 0 {
		t.Fatal("no probe-cache entries were evicted")
	}
}

func TestMiddlewareMapByteCap(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/big.html" {
			w.Header().Set("Content-Type", "text/html")
			var b strings.Builder
			b.WriteString("<html><body>")
			for i := 0; i < 40; i++ {
				fmt.Fprintf(&b, `<img src="/a-rather-long-asset-name-%02d.png">`, i)
			}
			b.WriteString("</body></html>")
			fmt.Fprint(w, b.String())
			return
		}
		w.Header().Set("Content-Type", "image/png")
		fmt.Fprint(w, "PNG", r.URL.Path)
	})
	h := tuned(mux, MiddlewareOptions{}, withMaxMapBytes(512))
	metrics := metricsOf(h)

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/big.html", nil))
	hdr := rec.Header().Get(HeaderName)
	if len(hdr) > 512 {
		t.Fatalf("X-Etag-Config is %d bytes, cap 512", len(hdr))
	}
	m, err := DecodeMap(hdr)
	if err != nil {
		t.Fatalf("capped map undecodable: %v", err)
	}
	if len(m) == 0 {
		t.Fatal("cap removed every entry")
	}
	if metrics.MapEntriesDropped.Load() == 0 {
		t.Fatal("drop counter did not move")
	}
	// Deterministic trim: the lowest-sorting paths survive.
	if _, ok := m["/a-rather-long-asset-name-00.png"]; !ok {
		t.Fatal("first asset missing from capped map")
	}
}
