package catalyst

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// fastRetry keeps test backoffs in the microsecond range.
var fastRetry = ClientOptions{
	MaxRetries:  3,
	BackoffBase: time.Microsecond,
	BackoffMax:  10 * time.Microsecond,
}

// --- catalyst.Client resilience ---------------------------------------

func TestClientRetriesTransient5xx(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			http.Error(w, "flaky", http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "text/plain")
		fmt.Fprint(w, "finally")
	}))
	defer ts.Close()

	c := NewClientWithOptions(nil, fastRetry)
	resp, err := c.Get(ts.URL + "/x")
	if err != nil {
		t.Fatal(err)
	}
	if resp.Source != "network" || string(resp.Body) != "finally" {
		t.Fatalf("resp: %s %q", resp.Source, resp.Body)
	}
	if st := c.Snapshot(); st.Retries != 2 || st.NetErrors != 0 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestClientDoesNotRetry4xx(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.NotFound(w, r)
	}))
	defer ts.Close()

	c := NewClientWithOptions(nil, fastRetry)
	resp, err := c.Get(ts.URL + "/gone")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 404 || calls.Load() != 1 {
		t.Fatalf("status %d after %d calls", resp.StatusCode, calls.Load())
	}
	if st := c.Snapshot(); st.Retries != 0 {
		t.Fatalf("retried a 404: %+v", st)
	}
}

func TestClientServesStaleWhenOriginDies(t *testing.T) {
	base, _, done := clientWorld(t)
	opts := fastRetry
	opts.StaleIfError = true
	c := NewClientWithOptions(nil, opts)

	first, err := c.Get(base + "/index.html")
	if err != nil {
		t.Fatal(err)
	}
	done() // the origin goes away entirely

	stale, err := c.Get(base + "/index.html")
	if err != nil {
		t.Fatalf("no stale fallback: %v", err)
	}
	if stale.Source != "stale" {
		t.Fatalf("source = %s, want stale", stale.Source)
	}
	if string(stale.Body) != string(first.Body) {
		t.Fatal("stale body differs from cached body")
	}
	st := c.Snapshot()
	if st.StaleServes != 1 || st.NetErrors != 1 || st.Retries != int64(opts.MaxRetries) {
		t.Fatalf("stats: %+v", st)
	}
}

func TestClientServesStaleOnPersistent5xx(t *testing.T) {
	var healthy atomic.Bool
	healthy.Store(true)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !healthy.Load() {
			http.Error(w, "down", http.StatusBadGateway)
			return
		}
		w.Header().Set("Content-Type", "text/plain")
		fmt.Fprint(w, "content-v1")
	}))
	defer ts.Close()

	opts := fastRetry
	opts.StaleIfError = true
	c := NewClientWithOptions(nil, opts)
	if _, err := c.Get(ts.URL + "/r"); err != nil {
		t.Fatal(err)
	}
	healthy.Store(false)
	resp, err := c.Get(ts.URL + "/r")
	if err != nil {
		t.Fatal(err)
	}
	if resp.Source != "stale" || string(resp.Body) != "content-v1" {
		t.Fatalf("resp: %s %q", resp.Source, resp.Body)
	}
}

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

	c := NewClientWithOptions(nil, ClientOptions{Timeout: 100 * time.Millisecond, StaleIfError: true})
	start := time.Now()
	_, err := c.Get(ts.URL + "/hang")
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("expected a timeout error")
	}
	if elapsed > 5*time.Second {
		t.Fatalf("Get hung for %v", elapsed)
	}
	if st := c.Snapshot(); st.Timeouts != 1 || st.NetErrors != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestClientBackoffDeterministicAndCapped(t *testing.T) {
	c := NewClientWithOptions(nil, ClientOptions{BackoffBase: 10 * time.Millisecond, BackoffMax: 80 * time.Millisecond})
	for attempt := 0; attempt < 10; attempt++ {
		a := c.backoff("https://x.example/r", attempt)
		b := c.backoff("https://x.example/r", attempt)
		if a != b {
			t.Fatalf("jitter not deterministic: %v vs %v", a, b)
		}
		if a <= 0 || a > 80*time.Millisecond {
			t.Fatalf("attempt %d backoff %v out of range", attempt, a)
		}
	}
	// Different URLs must spread (at least one differing delay).
	if c.backoff("https://x.example/a", 0) == c.backoff("https://x.example/b", 0) &&
		c.backoff("https://x.example/a", 1) == c.backoff("https://x.example/b", 1) {
		t.Fatal("jitter ignores the URL")
	}
}

// --- middleware resilience --------------------------------------------

func TestMiddlewareRecoversPanics(t *testing.T) {
	inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/boom" {
			panic("handler bug")
		}
		w.Header().Set("Content-Type", "text/plain")
		fmt.Fprint(w, "ok")
	})
	var metrics MiddlewareMetrics
	h := Middleware(inner, MiddlewareOptions{Metrics: &metrics})

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
	var metrics MiddlewareMetrics
	h := Middleware(mux, MiddlewareOptions{
		ProbeTTL:         time.Nanosecond, // every page load re-probes
		BreakerThreshold: 2,
		BreakerCooldown:  time.Hour,
		Metrics:          &metrics,
	})

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
	for i := 0; i < 5; i++ {
		loadPage()
		time.Sleep(time.Microsecond) // let the nanosecond TTL lapse
	}
	// Two probes trip the breaker; the remaining three loads are shielded.
	if got := cssCalls.Load(); got != 2 {
		t.Fatalf("probe calls = %d, want 2 (breaker did not open)", got)
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
	h := Middleware(mux, MiddlewareOptions{
		ProbeTTL:        time.Nanosecond,
		MaxProbeEntries: 8,
	})
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
	var metrics MiddlewareMetrics
	h := Middleware(mux, MiddlewareOptions{MaxMapBytes: 512, Metrics: &metrics})

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

// --- metrics exposure (satellite: observable resilience) ----------------

func TestClientMetricsHandlerReportsResilienceCounters(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// First request succeeds, everything after is a 503 — so the
		// client both caches and then exercises retry + stale paths.
		if calls.Add(1) > 1 {
			http.Error(w, "down", http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "text/plain")
		fmt.Fprint(w, "v1")
	}))
	defer ts.Close()

	opts := fastRetry
	opts.StaleIfError = true
	c := NewClientWithOptions(nil, opts)
	if _, err := c.Get(ts.URL + "/r"); err != nil {
		t.Fatal(err)
	}
	resp, err := c.Get(ts.URL + "/r") // injected faults: all 503s now
	if err != nil || resp.Source != "stale" {
		t.Fatalf("expected stale serve, got %v / %v", resp, err)
	}

	mts := httptest.NewServer(ClientMetricsHandler(c))
	defer mts.Close()
	res, err := http.Get(mts.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	var snap ClientStats
	if err := json.NewDecoder(res.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.Retries != int64(opts.MaxRetries) || snap.StaleServes != 1 || snap.NetErrors != 1 {
		t.Fatalf("exported stats: %+v", snap)
	}
	if snap.NetworkFetches != 1 {
		t.Fatalf("network fetches: %+v", snap)
	}
}
