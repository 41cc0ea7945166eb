package resilience

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"cachecatalyst/internal/leakcheck"
	"cachecatalyst/internal/telemetry"
)

// t0 is the time the breaker tests start at; each passes its own times.
var t0 = time.Date(2024, time.November, 18, 0, 0, 0, 0, time.UTC)

// trip records BreakerThreshold failures at now.
func trip(b *Breaker, now time.Time) {
	for i := 0; i < BreakerThreshold; i++ {
		b.Record(false, now)
	}
}

func TestBreakerOpensAtThreshold(t *testing.T) {
	b := NewBreaker(BreakerOptions{})
	for i := 0; i < BreakerThreshold-1; i++ {
		b.Record(false, t0)
		if !b.Allow(t0) {
			t.Fatalf("open after %d failures, threshold %d", i+1, BreakerThreshold)
		}
	}
	b.Record(false, t0)
	if b.Allow(t0) {
		t.Fatal("still allowing at threshold")
	}
	if b.State() != BreakerOpen {
		t.Fatalf("state = %v", b.State())
	}
}

func TestBreakerSuccessResetsRun(t *testing.T) {
	b := NewBreaker(BreakerOptions{})
	for i := 0; i < BreakerThreshold-1; i++ {
		b.Record(false, t0)
	}
	b.Record(true, t0)
	for i := 0; i < BreakerThreshold-1; i++ {
		b.Record(false, t0)
	}
	if !b.Allow(t0) {
		t.Fatal("non-consecutive failures opened the breaker")
	}
}

// TestBreakerHalfOpenTrial pins the cooldown to the nanosecond: an open
// breaker refuses until BreakerCooldown has passed since it opened, then
// admits exactly one trial.
func TestBreakerHalfOpenTrial(t *testing.T) {
	b := NewBreaker(BreakerOptions{})
	trip(b, t0)
	if b.Allow(t0.Add(BreakerCooldown - 1)) {
		t.Fatal("open breaker allowed traffic one tick before its cooldown ended")
	}
	reopen := t0.Add(BreakerCooldown)
	if !b.Allow(reopen) {
		t.Fatal("cooldown elapsed but no trial admitted")
	}
	if b.State() != BreakerHalfOpen {
		t.Fatalf("state = %v, want half-open", b.State())
	}
	if b.Allow(reopen) {
		t.Fatal("second trial admitted while first is in flight")
	}
	// Failed trial re-opens for a fresh cooldown, from the trial's time.
	b.Record(false, reopen)
	if b.State() != BreakerOpen || b.Allow(reopen.Add(BreakerCooldown-1)) {
		t.Fatal("failed trial did not re-open for a full cooldown")
	}
	// Another cooldown, successful trial closes.
	if !b.Allow(reopen.Add(BreakerCooldown)) {
		t.Fatal("no second trial")
	}
	b.Record(true, reopen.Add(BreakerCooldown))
	if b.State() != BreakerClosed || !b.Allow(reopen.Add(BreakerCooldown)) {
		t.Fatal("successful trial did not close")
	}
}

func TestHealthCheckerDrivesBreaker(t *testing.T) {
	leakcheck.Check(t)
	b := NewBreaker(BreakerOptions{})
	var healthy atomic.Bool
	reg := telemetry.NewRegistry()
	h := NewHealthChecker(b, func(ctx context.Context) error {
		if healthy.Load() {
			return nil
		}
		return errors.New("origin down")
	}, HealthOptions{Interval: time.Millisecond, Telemetry: reg, Name: "test.health"})
	h.Start()
	defer h.Stop()

	waitFor := func(cond func() bool, msg string) {
		t.Helper()
		deadline := time.Now().Add(2 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatal(msg)
			}
			time.Sleep(time.Millisecond)
		}
	}
	// Unhealthy origin: the checker opens the breaker without any user
	// traffic failing first.
	waitFor(func() bool { return b.State() == BreakerOpen }, "checker never opened the breaker")
	// Recovery: the checker's successful probes close it again, well
	// before a cooldown would have elapsed — active health beats passive
	// cooldown.
	healthy.Store(true)
	waitFor(func() bool { return b.State() == BreakerClosed }, "checker never closed the breaker")
	if h.Checks() == 0 || h.Failures() == 0 {
		t.Fatalf("checks=%d failures=%d", h.Checks(), h.Failures())
	}
	snap := reg.Snapshot()
	if snap.Counters["test.health.checks"] == 0 {
		t.Fatal("checks not indexed")
	}
}

func TestHealthCheckerStopIsLeakFree(t *testing.T) {
	leakcheck.Check(t)
	b := NewBreaker(BreakerOptions{})
	h := NewHealthChecker(b, func(ctx context.Context) error { return nil },
		HealthOptions{Interval: time.Millisecond})
	h.Start()
	time.Sleep(5 * time.Millisecond)
	h.Stop() // must wait for the loop goroutine; leakcheck asserts it
}
