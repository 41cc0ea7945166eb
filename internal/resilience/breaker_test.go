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

// fakeClock drives breaker cooldowns without sleeping.
type fakeClock struct{ now atomic.Int64 }

func (c *fakeClock) Now() time.Time          { return time.Unix(0, c.now.Load()) }
func (c *fakeClock) Advance(d time.Duration) { c.now.Add(int64(d)) }

func TestBreakerOpensAtThreshold(t *testing.T) {
	clk := &fakeClock{}
	b := NewBreaker(BreakerOptions{FailureThreshold: 3, Cooldown: time.Second, Now: clk.Now})
	for i := 0; i < 2; i++ {
		b.Record(false)
		if !b.Allow() {
			t.Fatalf("open after %d failures, threshold 3", i+1)
		}
	}
	b.Record(false)
	if b.Allow() {
		t.Fatal("still allowing at threshold")
	}
	if b.State() != BreakerOpen {
		t.Fatalf("state = %v", b.State())
	}
}

func TestBreakerSuccessResetsRun(t *testing.T) {
	b := NewBreaker(BreakerOptions{FailureThreshold: 3})
	b.Record(false)
	b.Record(false)
	b.Record(true)
	b.Record(false)
	b.Record(false)
	if !b.Allow() {
		t.Fatal("non-consecutive failures opened the breaker")
	}
}

func TestBreakerHalfOpenTrial(t *testing.T) {
	clk := &fakeClock{}
	b := NewBreaker(BreakerOptions{FailureThreshold: 1, Cooldown: time.Second, Now: clk.Now})
	b.Record(false)
	if b.Allow() {
		t.Fatal("open breaker allowed traffic")
	}
	clk.Advance(2 * time.Second)
	if !b.Allow() {
		t.Fatal("cooldown elapsed but no trial admitted")
	}
	if b.State() != BreakerHalfOpen {
		t.Fatalf("state = %v, want half-open", b.State())
	}
	if b.Allow() {
		t.Fatal("second trial admitted while first is in flight")
	}
	// Failed trial re-opens for a fresh cooldown.
	b.Record(false)
	if b.State() != BreakerOpen || b.Allow() {
		t.Fatal("failed trial did not re-open")
	}
	// Another cooldown, successful trial closes.
	clk.Advance(2 * time.Second)
	if !b.Allow() {
		t.Fatal("no second trial")
	}
	b.Record(true)
	if b.State() != BreakerClosed || !b.Allow() {
		t.Fatal("successful trial did not close")
	}
}

func TestBreakerDisabled(t *testing.T) {
	b := NewBreaker(BreakerOptions{FailureThreshold: -1})
	for i := 0; i < 100; i++ {
		b.Record(false)
	}
	if !b.Allow() {
		t.Fatal("disabled breaker opened")
	}
}

func TestHealthCheckerDrivesBreaker(t *testing.T) {
	leakcheck.Check(t)
	clk := &fakeClock{}
	b := NewBreaker(BreakerOptions{FailureThreshold: 2, Cooldown: time.Hour, Now: clk.Now})
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
	// Recovery: the checker's successful probes close it again, even
	// though the cooldown (1h) is nowhere near elapsed — active health
	// beats passive cooldown.
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
