package catalyst

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"cachecatalyst/internal/resilience"
	"cachecatalyst/internal/tenant"
	"cachecatalyst/internal/vclock"
)

// TestAgeBoundsAreExact checks every age bound of the serving path one tick
// before it and at it, on the virtual clock the middleware reads every age
// off: PROTOCOL.md §2.3's probe trust and the map reuse that rests on it,
// the stale window (the frozen one and a tenant's), a failing path's
// breaker cooldown and the origin breaker's. internal/cluster's
// TestExchangeTTLCap is the hot map's row.
func TestAgeBoundsAreExact(t *testing.T) {
	t.Run("probe reused until probeTTL", func(t *testing.T) {
		var calls atomic.Int64
		inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			calls.Add(1)
			w.Header().Set("Content-Type", "image/png")
			fmt.Fprint(w, "PNG")
		})
		clk := vclock.NewVirtual(vclock.Epoch)
		m := tuned(inner, MiddlewareOptions{}, withClock(clk)).(*middleware)
		req := httptest.NewRequest("GET", "/", nil)
		probe := func() int64 {
			m.probe(&m.def, "/a.png", req, context.Background())
			return calls.Load()
		}
		probe()
		clk.Advance(probeTTL - 1)
		if n := probe(); n != 1 {
			t.Fatalf("one tick before probeTTL: %d inner calls, want the probe reused (1)", n)
		}
		clk.Advance(1)
		if n := probe(); n != 2 {
			t.Fatalf("at probeTTL: %d inner calls, want the probe re-fetched (2)", n)
		}
	})

	t.Run("map reused until its oldest probe expires", func(t *testing.T) {
		s := newSlotHarness(t, newPageSet(), nil)
		s.serve("/b.html") // probes /shared.png at t0
		s.clk.Advance(time.Millisecond)
		s.serve("/a.html") // probes /a1.png a millisecond later; /shared.png is the oldest
		s.clk.Advance(probeTTL - time.Millisecond - 1)
		if st, _ := s.serve("/a.html"); !strings.Contains(st, "map-reused") {
			t.Fatalf("one tick before /shared.png expires: decided %q, want map-reused", st)
		}
		s.clk.Advance(1)
		if st, _ := s.serve("/a.html"); !strings.Contains(st, "map-built") {
			t.Fatalf("as /shared.png expires: decided %q, want map-built", st)
		}
	})

	// stale serves /page from a stale copy recorded at t0 while the page
	// errors, and refuses it once the copy's age passes window.
	stale := func(t *testing.T, window time.Duration, owner *tenant.Tenant) {
		site := newFlakySite()
		clk := vclock.NewVirtual(vclock.Epoch)
		h := tuned(site, MiddlewareOptions{}, withClock(clk))
		serve := func() *httptest.ResponseRecorder {
			req := httptest.NewRequest("GET", "/page", nil)
			if owner != nil {
				req = req.WithContext(tenant.NewContext(req.Context(), owner))
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			return rec
		}
		if rec := serve(); rec.Code != http.StatusOK {
			t.Fatalf("prime: %d", rec.Code)
		}
		site.mode.Store("err")
		clk.Advance(window)
		rec := serve()
		if want := fmt.Sprint(int64(window / time.Second)); rec.Code != http.StatusOK || rec.Header().Get("Warning") == "" || rec.Header().Get("Age") != want {
			t.Fatalf("at the window: %d, Warning %q, Age %q, want a stale 200 of Age %s", rec.Code, rec.Header().Get("Warning"), rec.Header().Get("Age"), want)
		}
		clk.Advance(1)
		if rec := serve(); rec.Code != http.StatusInternalServerError {
			t.Fatalf("one tick past the window: %d, want the origin's 500", rec.Code)
		}
	}
	t.Run("stale served until staleFor", func(t *testing.T) { stale(t, staleFor, nil) })
	t.Run("stale served until a tenant's StaleFor", func(t *testing.T) {
		stale(t, 10*time.Second, &tenant.Tenant{Name: "brief", StaleFor: 10 * time.Second})
	})

	t.Run("failing path held out for breakerCooldown", func(t *testing.T) {
		var failing atomic.Bool
		failing.Store(true)
		inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/page.html" {
				w.Header().Set("Content-Type", "text/html")
				fmt.Fprint(w, `<html><head><link rel="stylesheet" href="/flaky.css"></head></html>`)
				return
			}
			if failing.Load() {
				http.Error(w, "db down", http.StatusInternalServerError)
				return
			}
			w.Header().Set("Content-Type", "text/css")
			fmt.Fprint(w, "a{}")
		})
		clk := vclock.NewVirtual(vclock.Epoch)
		h := tuned(inner, MiddlewareOptions{}, withClock(clk))
		mapped := func() bool {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("GET", "/page.html", nil))
			return strings.Contains(rec.Header().Get(HeaderName), "/flaky.css")
		}
		for i := 0; i < breakerThreshold; i++ {
			if i > 0 {
				clk.Advance(probeTTL)
			}
			mapped()
		}
		failing.Store(false) // the path recovers as its breaker opens
		clk.Advance(breakerCooldown - 1)
		if mapped() {
			t.Fatal("one tick before breakerCooldown: the path is back in the map")
		}
		clk.Advance(1)
		if !mapped() {
			t.Fatal("at breakerCooldown: the recovered path is still out of the map")
		}
	})

	t.Run("origin breaker refuses until its cooldown, then admits one trial", func(t *testing.T) {
		site := newFlakySite()
		clk := vclock.NewVirtual(vclock.Epoch)
		h := tuned(site, MiddlewareOptions{OriginBreaker: resilience.NewBreaker(resilience.BreakerOptions{})}, withClock(clk))
		prime(t, h)
		site.mode.Store("err")
		for i := 0; i < resilience.BreakerThreshold; i++ {
			get(h, "/page")
		}
		calls := site.calls.Load()
		clk.Advance(resilience.BreakerCooldown - 1)
		if rec := get(h, "/page"); rec.Header().Get("Warning") == "" || site.calls.Load() != calls {
			t.Fatalf("one tick before the cooldown: Warning %q, %d inner calls, want a stale copy and none", rec.Header().Get("Warning"), site.calls.Load()-calls)
		}
		clk.Advance(1)
		get(h, "/page") // the trial, which fails and re-opens the breaker
		get(h, "/page")
		if n := site.calls.Load() - calls; n != 1 {
			t.Fatalf("at the cooldown: %d inner calls, want one trial", n)
		}
	})
}
