package catalyst

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cachecatalyst/internal/leakcheck"
	"cachecatalyst/internal/resilience"
	"cachecatalyst/internal/telemetry"
)

// flakySite is an inner handler whose page path can be flipped between
// healthy HTML, 500s, panics, and blocking — the failure injector the
// ladder tests drive. Subresources always serve, so probing works while
// the page itself misbehaves.
type flakySite struct {
	mode    atomic.Value  // "ok" | "err" | "panic"
	calls   atomic.Int64  // page serves attempted (any mode)
	block   atomic.Value  // chan struct{}: when set, /page serves block on it
	delayNS atomic.Int64  // when set, /page serves sleep this long
	entered chan struct{} // receives one token per blocked /page serve
	// tag, when set before the first request, is the pages' Etag, and a
	// matching If-None-Match is answered 304.
	tag string
}

const flakyPage = `<html><head><link rel="stylesheet" href="/style.css"></head><body>page</body></html>`

func newFlakySite() *flakySite {
	f := &flakySite{entered: make(chan struct{}, 64)}
	f.mode.Store("ok")
	return f
}

func (f *flakySite) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch r.URL.Path {
	case "/style.css":
		w.Header().Set("Content-Type", "text/css")
		fmt.Fprint(w, "body{}")
		return
	case "/page", "/other":
		f.calls.Add(1)
		switch f.mode.Load().(string) {
		case "err":
			http.Error(w, "origin exploded", http.StatusInternalServerError)
			return
		case "panic":
			panic("origin panicked")
		}
		// Only /page blocks or dawdles, so a test can saturate the gate
		// with /page while /other stays responsive for passthrough.
		if r.URL.Path == "/page" {
			if ch, _ := f.block.Load().(chan struct{}); ch != nil {
				f.entered <- struct{}{}
				<-ch
			}
			if d := f.delayNS.Load(); d > 0 {
				time.Sleep(time.Duration(d))
			}
		}
		if f.tag != "" {
			w.Header().Set("Etag", f.tag)
			if r.Header.Get("If-None-Match") == f.tag {
				w.WriteHeader(http.StatusNotModified)
				return
			}
		}
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		fmt.Fprint(w, flakyPage)
		return
	}
	http.NotFound(w, r)
}

// get runs one request and returns the recorder.
func get(h http.Handler, path string, hdr ...string) *httptest.ResponseRecorder {
	req := httptest.NewRequest("GET", path, nil)
	for i := 0; i+1 < len(hdr); i += 2 {
		req.Header.Set(hdr[i], hdr[i+1])
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// prime serves /page once successfully so a stale copy exists.
func prime(t *testing.T, h http.Handler) *httptest.ResponseRecorder {
	t.Helper()
	rec := get(h, "/page")
	if rec.Code != 200 || rec.Header().Get(HeaderName) == "" {
		t.Fatalf("prime: status=%d map=%q", rec.Code, rec.Header().Get(HeaderName))
	}
	return rec
}

// TestLadderRungs pins each degradation rung's wire contract and its
// counter: exactly one rung per degraded response.
func TestLadderRungs(t *testing.T) {
	t.Run("stale on origin error", func(t *testing.T) {
		site := newFlakySite()
		h := Middleware(site, MiddlewareOptions{})
		metrics := metricsOf(h)
		fresh := prime(t, h)

		site.mode.Store("err")
		rec := get(h, "/page")
		if rec.Code != 200 {
			t.Fatalf("status = %d, want stale 200", rec.Code)
		}
		if w := rec.Header().Get("Warning"); !strings.Contains(w, "110") {
			t.Fatalf("Warning = %q, want 110", w)
		}
		if rec.Header().Get(HeaderName) == "" {
			t.Fatal("stale response lost the map")
		}
		if got, want := rec.Header().Get("Etag"), fresh.Header().Get("Etag"); got != want {
			t.Fatalf("stale Etag = %q, want the last good %q", got, want)
		}
		if rec.Body.String() != fresh.Body.String() {
			t.Fatal("stale body differs from the last good serve")
		}
		if metrics.LadderStale.Load() != 1 {
			t.Fatalf("LadderStale = %d", metrics.LadderStale.Load())
		}

		// A conditional against the stale validator still short-circuits.
		rec304 := get(h, "/page", "If-None-Match", fresh.Header().Get("Etag"))
		if rec304.Code != http.StatusNotModified {
			t.Fatalf("conditional against stale: %d", rec304.Code)
		}
		if metrics.LadderStale.Load() != 2 {
			t.Fatalf("LadderStale after 304 = %d", metrics.LadderStale.Load())
		}
	})

	t.Run("stale on panic", func(t *testing.T) {
		site := newFlakySite()
		h := Middleware(site, MiddlewareOptions{})
		metrics := metricsOf(h)
		prime(t, h)

		site.mode.Store("panic")
		rec := get(h, "/page")
		if rec.Code != 200 || !strings.Contains(rec.Header().Get("Warning"), "110") {
			t.Fatalf("panic with stale available: status=%d warning=%q", rec.Code, rec.Header().Get("Warning"))
		}
		if metrics.PanicsRecovered.Load() != 1 || metrics.LadderStale.Load() != 1 {
			t.Fatalf("panics=%d stale=%d", metrics.PanicsRecovered.Load(), metrics.LadderStale.Load())
		}
	})

	t.Run("passthrough on queue timeout", func(t *testing.T) {
		site := newFlakySite()
		h := Middleware(site, MiddlewareOptions{MaxInflight: 1})
		metrics := metricsOf(h)
		// Occupy the only slot with a request blocked inside the handler.
		blockCh := make(chan struct{})
		site.block.Store(blockCh)
		var wg sync.WaitGroup
		wg.Add(1)
		go func() { defer wg.Done(); get(h, "/page") }()
		<-site.entered

		// No stale copy exists for /other, so the shed request times out
		// of the queue and falls to the passthrough rung: raw HTML, no
		// map, no snippet.
		rec := get(h, "/other")
		if rec.Code != 200 {
			t.Fatalf("passthrough status = %d", rec.Code)
		}
		if rec.Header().Get(HeaderName) != "" {
			t.Fatal("passthrough response carries a map")
		}
		if strings.Contains(rec.Body.String(), RegistrationSnippet) {
			t.Fatal("passthrough response got the snippet injected")
		}
		if metrics.LadderPassthrough.Load() != 1 {
			t.Fatalf("LadderPassthrough = %d", metrics.LadderPassthrough.Load())
		}

		close(blockCh)
		site.block.Store((chan struct{})(nil))
		wg.Wait()
	})

	t.Run("503 on full queue", func(t *testing.T) {
		site := newFlakySite()
		h := Middleware(site, MiddlewareOptions{MaxInflight: 1})
		metrics := metricsOf(h)
		blockCh := make(chan struct{})
		site.block.Store(blockCh)
		var wg sync.WaitGroup
		wg.Add(1)
		go func() { defer wg.Done(); get(h, "/page") }()
		<-site.entered

		// One slot, held, and a queue as long: of a burst for /other (no
		// stale copy), one waits out its 50 ms and passes through, and the
		// arrivals that find it waiting are refused at once.
		const burst = 8
		var codes [burst]int
		var retryAfter [burst]string
		var burstWG sync.WaitGroup
		for i := range codes {
			burstWG.Add(1)
			go func() {
				defer burstWG.Done()
				rec := get(h, "/other")
				codes[i], retryAfter[i] = rec.Code, rec.Header().Get("Retry-After")
			}()
		}
		burstWG.Wait()
		var rejected int64
		for i, code := range codes {
			switch {
			case code == http.StatusServiceUnavailable && retryAfter[i] == "5":
				rejected++
			case code != http.StatusOK:
				t.Fatalf("burst request %d: status %d, Retry-After %q; want 200 or 503 with Retry-After 5", i, code, retryAfter[i])
			}
		}
		if rejected == 0 || metrics.LadderRejected.Load() != rejected || metrics.LadderPassthrough.Load() != burst-rejected {
			t.Fatalf("%d of %d refused; LadderRejected = %d, LadderPassthrough = %d", rejected, burst,
				metrics.LadderRejected.Load(), metrics.LadderPassthrough.Load())
		}

		close(blockCh)
		site.block.Store((chan struct{})(nil))
		wg.Wait()
	})

	t.Run("shed prefers stale over passthrough", func(t *testing.T) {
		site := newFlakySite()
		h := Middleware(site, MiddlewareOptions{MaxInflight: 1})
		metrics := metricsOf(h)
		prime(t, h)

		blockCh := make(chan struct{})
		site.block.Store(blockCh)
		var wg sync.WaitGroup
		wg.Add(1)
		go func() { defer wg.Done(); get(h, "/page") }()
		<-site.entered

		rec := get(h, "/page")
		if rec.Code != 200 || !strings.Contains(rec.Header().Get("Warning"), "110") {
			t.Fatalf("shed with stale: status=%d warning=%q", rec.Code, rec.Header().Get("Warning"))
		}
		if metrics.LadderStale.Load() != 1 || metrics.LadderRejected.Load() != 0 {
			t.Fatalf("stale=%d rejected=%d", metrics.LadderStale.Load(), metrics.LadderRejected.Load())
		}

		close(blockCh)
		site.block.Store((chan struct{})(nil))
		wg.Wait()
	})
}

// TestLadderErrorWithoutStaleIsHonest pins that the ladder never invents
// content: with no stale copy, an origin error still reaches the client.
func TestLadderErrorWithoutStaleIsHonest(t *testing.T) {
	site := newFlakySite()
	site.mode.Store("err")
	h := Middleware(site, MiddlewareOptions{})
	if rec := get(h, "/page"); rec.Code != http.StatusInternalServerError {
		t.Fatalf("error without stale: %d, want 500", rec.Code)
	}
}

// TestBreakerFlipsToStaleServing is the flapping-origin cell: after the
// failure threshold, the middleware stops calling the inner handler
// entirely and serves stale, then recovers through a half-open trial.
func TestBreakerFlipsToStaleServing(t *testing.T) {
	site := newFlakySite()
	reg := telemetry.NewRegistry()
	h := tuned(site, MiddlewareOptions{
		Telemetry:     reg,
		OriginBreaker: resilience.NewBreaker(resilience.BreakerOptions{Telemetry: reg, Name: "middleware.origin"}),
	}, withStoppedClock()) // no recovery inside this test
	metrics := metricsOf(h)
	prime(t, h)

	site.mode.Store("err")
	for i := 0; i < resilience.BreakerThreshold; i++ {
		if rec := get(h, "/page"); rec.Code != 200 {
			t.Fatalf("serve %d during flap: %d", i, rec.Code)
		}
	}
	callsWhenOpen := site.calls.Load()

	// Breaker is open now: the inner handler is left alone.
	for i := 0; i < 3; i++ {
		rec := get(h, "/page")
		if rec.Code != 200 || !strings.Contains(rec.Header().Get("Warning"), "110") {
			t.Fatalf("open-breaker serve %d: status=%d warning=%q", i, rec.Code, rec.Header().Get("Warning"))
		}
	}
	if got := site.calls.Load(); got != callsWhenOpen {
		t.Fatalf("open breaker still called the inner handler: %d -> %d", callsWhenOpen, got)
	}
	if reg.Snapshot().Counters["middleware.origin.trips"] != 1 {
		t.Fatalf("trips counter: %+v", reg.Snapshot().Counters)
	}
	if want := int64(resilience.BreakerThreshold + 3); metrics.LadderStale.Load() != want {
		t.Fatalf("LadderStale = %d, want %d (%d held errors + 3 open-breaker)", metrics.LadderStale.Load(), want, resilience.BreakerThreshold)
	}
}

// TestBreakerWithoutStaleRejects pins the open-breaker rung for pages the
// cache has never seen: 503, not a hang and not an error-proxy.
func TestBreakerWithoutStaleRejects(t *testing.T) {
	site := newFlakySite()
	site.mode.Store("err")
	h := tuned(site, MiddlewareOptions{OriginBreaker: resilience.NewBreaker(resilience.BreakerOptions{})}, withStoppedClock())
	metrics := metricsOf(h)
	for i := 0; i < resilience.BreakerThreshold; i++ {
		if rec := get(h, "/page"); rec.Code != http.StatusInternalServerError {
			t.Fatalf("failure %d: %d", i, rec.Code) // no stale yet: honest error
		}
	}
	rec := get(h, "/page")
	if rec.Code != http.StatusServiceUnavailable || rec.Header().Get("Retry-After") == "" {
		t.Fatalf("open breaker without stale: %d Retry-After=%q", rec.Code, rec.Header().Get("Retry-After"))
	}
	if metrics.LadderRejected.Load() != 1 {
		t.Fatalf("LadderRejected = %d", metrics.LadderRejected.Load())
	}
}

// TestBudgetExhaustedServesPlain: when the deadline budget is spent by the
// time the inner handler returns the page, the middleware skips probing
// and map assembly and delivers the HTML un-instrumented.
func TestBudgetExhaustedServesPlain(t *testing.T) {
	site := newFlakySite()
	h := Middleware(site, MiddlewareOptions{
		RequestBudget: time.Nanosecond, // spent before the handler returns
	})
	metrics := metricsOf(h)
	rec := get(h, "/page")
	if rec.Code != 200 {
		t.Fatalf("status = %d", rec.Code)
	}
	if rec.Header().Get(HeaderName) != "" {
		t.Fatal("budget-exhausted response carries a map")
	}
	if strings.Contains(rec.Body.String(), RegistrationSnippet) {
		t.Fatal("budget-exhausted response got the snippet")
	}
	if rec.Body.String() != flakyPage {
		t.Fatalf("body = %q, want the raw page", rec.Body.String())
	}
	if metrics.BudgetExhausted.Load() != 1 {
		t.Fatalf("BudgetExhausted = %d", metrics.BudgetExhausted.Load())
	}
	// A generous budget decorates normally.
	h2 := Middleware(newFlakySite(), MiddlewareOptions{RequestBudget: time.Minute})
	if rec := get(h2, "/page"); rec.Header().Get(HeaderName) == "" {
		t.Fatal("generous budget failed to decorate")
	}
	// A held page whose revalidation spends the budget is served plain too:
	// the raw page out of the held render, under the tag the handler just
	// vouched for.
	site = newFlakySite()
	site.tag = `"page-v1"`
	h3 := Middleware(site, MiddlewareOptions{RequestBudget: 50 * time.Millisecond})
	metrics = metricsOf(h3)
	if rec := get(h3, "/page"); rec.Header().Get(HeaderName) == "" {
		t.Fatal("the budget did not suffice to decorate (and hold) the page")
	}
	site.delayNS.Store(int64(100 * time.Millisecond))
	rec = get(h3, "/page")
	if rec.Code != 200 || rec.Body.String() != flakyPage || rec.Header().Get("Etag") != site.tag || rec.Header().Get(HeaderName) != "" {
		t.Fatalf("revalidated past its budget: %d, Etag %q, map %q, body %q; want the raw page under %s, no map",
			rec.Code, rec.Header().Get("Etag"), rec.Header().Get(HeaderName), rec.Body.String(), site.tag)
	}
	if metrics.PageRevalidated.Load() != 1 || metrics.BudgetExhausted.Load() != 1 {
		t.Fatalf("PageRevalidated = %d, BudgetExhausted = %d, want 1 and 1", metrics.PageRevalidated.Load(), metrics.BudgetExhausted.Load())
	}
}

// TestOverloadBurstInvariants is the concurrency-spike chaos cell in
// miniature: under a burst 16x the gate width, no client sees a 5xx
// (a stale copy exists), every response is accounted, and every shed
// request lands on exactly one ladder rung.
func TestOverloadBurstInvariants(t *testing.T) {
	leakcheck.Check(t)
	site := newFlakySite()
	reg := telemetry.NewRegistry()
	h := Middleware(site, MiddlewareOptions{
		Telemetry:   reg,
		MaxInflight: 2,
	})
	metrics := metricsOf(h)
	prime(t, h)
	site.delayNS.Store(int64(2 * time.Millisecond)) // force queueing

	const n = 32
	var wg sync.WaitGroup
	var fresh, degraded, errors atomic.Int64
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rec := get(h, "/page")
			switch {
			case rec.Code >= 500:
				errors.Add(1)
			case rec.Header().Get("Warning") != "":
				degraded.Add(1)
			default:
				fresh.Add(1)
			}
		}()
	}
	wg.Wait()

	if errors.Load() != 0 {
		t.Fatalf("%d clients saw 5xx during overload with stale available", errors.Load())
	}
	if fresh.Load()+degraded.Load() != n {
		t.Fatalf("fresh %d + degraded %d != %d", fresh.Load(), degraded.Load(), n)
	}
	snap := reg.Snapshot()
	shed := snap.Counters["middleware.gate.shed_timeout"] + snap.Counters["middleware.gate.shed_full"]
	rungs := metrics.LadderStale.Load() + metrics.LadderPassthrough.Load() + metrics.LadderRejected.Load()
	if shed != rungs {
		t.Fatalf("sheds %d != ladder rungs %d: every shed lands on exactly one rung", shed, rungs)
	}
	if degraded.Load() != rungs {
		t.Fatalf("degraded responses %d != rung counters %d", degraded.Load(), rungs)
	}
	if snap.Gauges["middleware.gate.inflight"] != 0 {
		t.Fatalf("gate slots leaked: %v", snap.Gauges["middleware.gate.inflight"])
	}
}
