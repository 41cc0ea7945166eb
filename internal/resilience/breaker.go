package resilience

import (
	"context"
	"sync"
	"time"

	"cachecatalyst/internal/telemetry"
)

// BreakerState is a circuit breaker's position.
type BreakerState int32

const (
	// BreakerClosed passes traffic and counts consecutive failures.
	BreakerClosed BreakerState = iota
	// BreakerOpen refuses traffic until the cooldown elapses.
	BreakerOpen
	// BreakerHalfOpen lets one trial request through; its outcome closes
	// or re-opens the breaker.
	BreakerHalfOpen
)

// String renders the state for logs and debug snapshots.
func (s BreakerState) String() string {
	switch s {
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

// BreakerOptions configures a Breaker.
type BreakerOptions struct {
	// Telemetry, when set with a non-empty Name, indexes trip/probe
	// counters under Name.
	Telemetry *telemetry.Registry
	Name      string
}

// No program sets the values below, so they are constants rather than
// options (DESIGN.md, "Frozen values").
const (
	// BreakerThreshold consecutive failures open a breaker.
	BreakerThreshold = 5
	// BreakerCooldown is how long an open breaker refuses traffic before
	// letting a half-open trial through.
	BreakerCooldown = 5 * time.Second
)

// Breaker is a consecutive-failure circuit breaker guarding one origin:
// closed it only counts, at the threshold it opens and refuses fast, and
// after the cooldown it half-opens to let a single trial decide. The
// serving path records outcomes passively; a HealthChecker can record
// actively so a recovered origin closes the breaker without waiting for
// user traffic to gamble on it. A breaker keeps no clock: every call
// carries its caller's time, the serving path's clock or the checker's
// wall clock.
type Breaker struct {
	mu       sync.Mutex
	state    BreakerState
	fails    int
	openedAt time.Time

	trips *telemetry.Counter // nil without Telemetry
}

// NewBreaker returns a closed breaker.
func NewBreaker(opts BreakerOptions) *Breaker {
	b := &Breaker{}
	if opts.Telemetry != nil && opts.Name != "" {
		b.trips = opts.Telemetry.Counter(opts.Name + ".trips")
	}
	return b
}

// Allow reports whether a request may proceed at now. In the open state it
// returns false until BreakerCooldown has elapsed, then flips to half-open
// and admits exactly one trial; further calls are refused until Record
// settles the trial.
func (b *Breaker) Allow(now time.Time) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		return true
	case BreakerHalfOpen:
		return false // a trial is already in flight
	default:
		if now.Sub(b.openedAt) < BreakerCooldown {
			return false
		}
		b.state = BreakerHalfOpen
		return true
	}
}

// Record feeds one outcome observed at now into the breaker: a success
// closes it (or resets the failure run), a failure extends the run and
// opens the breaker at the threshold. Half-open trials settle here.
func (b *Breaker) Record(ok bool, now time.Time) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if ok {
		b.state = BreakerClosed
		b.fails = 0
		return
	}
	b.fails++
	if b.state == BreakerHalfOpen || b.fails >= BreakerThreshold {
		if b.state != BreakerOpen && b.trips != nil {
			b.trips.Add(1)
		}
		b.state = BreakerOpen
		b.openedAt = now
		b.fails = 0
	}
}

// State returns the breaker's current position (open breakers past their
// cooldown still report open until the next Allow flips them half-open).
func (b *Breaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// HealthChecker actively probes an origin on an interval and records the
// outcomes into a breaker, so a brown-out is detected before users pay for
// it and a recovery closes the breaker without gambling live traffic.
type HealthChecker struct {
	probe    func(ctx context.Context) error
	breaker  *Breaker
	interval time.Duration

	checks, failures telemetry.Counter

	stop chan struct{}
	done chan struct{}
}

// HealthOptions configures a HealthChecker.
type HealthOptions struct {
	// Interval between probes; half of it bounds one probe. Zero selects
	// 2 seconds.
	Interval time.Duration
	// Telemetry, with Name, indexes check/failure counters.
	Telemetry *telemetry.Registry
	Name      string
}

// NewHealthChecker returns a checker feeding probe outcomes into breaker.
// Call Start to begin probing and Stop to halt (Stop waits for the probe
// goroutine to exit, so drains are leak-free).
func NewHealthChecker(breaker *Breaker, probe func(ctx context.Context) error, opts HealthOptions) *HealthChecker {
	if opts.Interval <= 0 {
		opts.Interval = 2 * time.Second
	}
	h := &HealthChecker{
		probe:    probe,
		breaker:  breaker,
		interval: opts.Interval,
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	if opts.Telemetry != nil && opts.Name != "" {
		opts.Telemetry.RegisterCounter(opts.Name+".checks", &h.checks)
		opts.Telemetry.RegisterCounter(opts.Name+".failures", &h.failures)
	}
	return h
}

// Start launches the probe loop.
func (h *HealthChecker) Start() {
	go h.loop()
}

// Stop halts probing and waits for the loop goroutine to exit. Safe to
// call once; callers sequencing a drain call it before flushing telemetry.
func (h *HealthChecker) Stop() {
	close(h.stop)
	<-h.done
}

// Checks returns how many probes have run; Failures how many failed.
func (h *HealthChecker) Checks() int64   { return h.checks.Load() }
func (h *HealthChecker) Failures() int64 { return h.failures.Load() }

func (h *HealthChecker) loop() {
	defer close(h.done)
	ticker := time.NewTicker(h.interval)
	defer ticker.Stop()
	for {
		select {
		case <-h.stop:
			return
		case <-ticker.C:
			h.check()
		}
	}
}

func (h *HealthChecker) check() {
	ctx, cancel := context.WithTimeout(context.Background(), h.interval/2)
	defer cancel()
	err := h.probe(ctx)
	h.checks.Add(1)
	if err != nil {
		h.failures.Add(1)
	}
	h.breaker.Record(err == nil, time.Now())
}
