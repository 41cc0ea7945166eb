package resilience

import (
	"context"
	"errors"
	"sync/atomic"
	"time"

	"cachecatalyst/internal/telemetry"
)

// Gate admission errors. Callers route each to a different degradation
// rung: a timed-out wait means the server is busy but draining (degraded
// service is worth attempting), a full queue means it is saturated (only
// pre-computed answers or a refusal are affordable).
var (
	// ErrQueueTimeout reports that the request waited its full queue
	// allowance (or its context expired while waiting) without a slot
	// freeing up.
	ErrQueueTimeout = errors.New("resilience: admission queue wait timed out")
	// ErrQueueFull reports that the request was refused instantly because
	// the wait queue itself was at capacity.
	ErrQueueFull = errors.New("resilience: admission queue full")
)

// GateOptions configures a Gate.
type GateOptions struct {
	// MaxInflight bounds how many acquisitions may be outstanding at
	// once. Zero selects 256. As many requests again may wait for a slot
	// (arrivals beyond that are refused immediately with ErrQueueFull),
	// each for at most queueTimeout.
	MaxInflight int
	// Telemetry, when set, indexes the gate's counters and gauges under
	// Name (e.g. "<name>.admitted"). Name must be non-empty when
	// Telemetry is set.
	Telemetry *telemetry.Registry
	Name      string
}

// queueTimeout is how long a queued request waits for a slot before giving
// up with ErrQueueTimeout: long enough to absorb a scheduling hiccup, short
// enough that a shed request still has latency budget left for the degraded
// response. No program sets another wait.
const queueTimeout = 50 * time.Millisecond

// Gate is a bounded-concurrency admission controller with a short timed
// queue: the front door of the overload story. Under normal load every
// AcquireSlot returns a slot immediately; under saturation requests queue
// briefly, and past that they are refused fast — the caller degrades
// instead of stacking goroutines until memory or latency collapses.
type Gate struct {
	slots    chan struct{}
	maxQueue int
	timeout  time.Duration

	queued   atomic.Int64
	inflight telemetry.Gauge
	depth    telemetry.Gauge

	// Admitted counts successful acquisitions; ShedTimeout and ShedFull
	// count refusals by kind. Exported-by-accessor only; the registry
	// indexes the same storage.
	admitted    telemetry.Counter
	shedTimeout telemetry.Counter
	shedFull    telemetry.Counter
}

// NewGate returns a gate enforcing opts.
func NewGate(opts GateOptions) *Gate {
	if opts.MaxInflight <= 0 {
		opts.MaxInflight = 256
	}
	return newGate(opts, opts.MaxInflight, queueTimeout)
}

// newGate is NewGate with the queue's length and wait given: the frozen
// values, or a test's.
func newGate(opts GateOptions, maxQueue int, timeout time.Duration) *Gate {
	g := &Gate{
		slots:    make(chan struct{}, opts.MaxInflight),
		maxQueue: maxQueue,
		timeout:  timeout,
	}
	if opts.Telemetry != nil && opts.Name != "" {
		reg, n := opts.Telemetry, opts.Name
		reg.RegisterCounter(n+".admitted", &g.admitted)
		reg.RegisterCounter(n+".shed_timeout", &g.shedTimeout)
		reg.RegisterCounter(n+".shed_full", &g.shedFull)
		reg.RegisterGauge(n+".inflight", &g.inflight)
		reg.RegisterGauge(n+".queued", &g.depth)
	}
	return g
}

// AcquireSlot claims a concurrency slot, waiting in the timed queue when
// none is free. On nil return the caller owns the slot and must free it with
// exactly one Release; on refusal it returns ErrQueueTimeout or
// ErrQueueFull. A context already cancelled or expiring mid-wait sheds with
// ErrQueueTimeout: the caller's budget is gone either way. It allocates
// nothing on the admitting path.
func (g *Gate) AcquireSlot(ctx context.Context) error {
	select {
	case g.slots <- struct{}{}:
		g.admitted.Add(1)
		g.inflight.Add(1)
		return nil
	default:
	}
	if int(g.queued.Add(1)) > g.maxQueue {
		g.queued.Add(-1)
		g.shedFull.Add(1)
		return ErrQueueFull
	}
	g.depth.Set(g.queued.Load())
	timer := time.NewTimer(g.timeout)
	defer timer.Stop()
	defer func() {
		g.depth.Set(g.queued.Add(-1))
	}()
	select {
	case g.slots <- struct{}{}:
		g.admitted.Add(1)
		g.inflight.Add(1)
		return nil
	case <-timer.C:
		g.shedTimeout.Add(1)
		return ErrQueueTimeout
	case <-ctx.Done():
		g.shedTimeout.Add(1)
		return ErrQueueTimeout
	}
}

// Release frees one slot claimed by a successful AcquireSlot.
func (g *Gate) Release() {
	<-g.slots
	g.inflight.Add(-1)
}

// Inflight returns the number of currently held slots.
func (g *Gate) Inflight() int { return len(g.slots) }

// Shed returns the total number of refused acquisitions.
func (g *Gate) Shed() int64 { return g.shedTimeout.Load() + g.shedFull.Load() }

// Admitted returns the total number of successful acquisitions.
func (g *Gate) Admitted() int64 { return g.admitted.Load() }
