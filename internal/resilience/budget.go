// Package resilience is the overload-protection toolkit the serving layers
// share: per-request deadline budgets carried on context, a bounded
// admission gate with a short timed queue, origin circuit breakers with
// active health checks, and graceful server drain.
//
// The paper's latency win only matters while the edge tier stays up; this
// package supplies the policies that make saturation degrade service
// instead of breaking it. The consumers are catalyst.Middleware (the
// degradation ladder), internal/server (map-resolve shedding) and
// cmd/catalystd (lifecycle). Everything here is dependency-free beyond
// internal/telemetry, so any layer can adopt it without import cycles.
package resilience

import (
	"context"
	"time"
)

// budgetKey carries the *Budget on a context.
type budgetKey struct{}

// Budget is a per-request latency allowance. The entry point assigns one;
// every downstream stage shares the same clock, so whatever one stage
// spends is gone for the rest — probes, renders and origin round-trips
// inherit the remainder through the context deadline and abandon work when
// it is spent.
type Budget struct {
	start    time.Time
	total    time.Duration
	deadline time.Time
}

// WithBudget returns a context carrying — and enforcing, via a real
// context deadline — a latency budget of total, plus the cancel func that
// releases its timer. A context that already has an earlier deadline keeps
// it (the stricter bound wins); the budget is still recorded for
// accounting. total <= 0 returns ctx unchanged with a no-op cancel.
func WithBudget(ctx context.Context, total time.Duration) (context.Context, context.CancelFunc) {
	if total <= 0 {
		return ctx, func() {}
	}
	now := time.Now()
	b := &Budget{start: now, total: total, deadline: now.Add(total)}
	ctx = context.WithValue(ctx, budgetKey{}, b)
	if existing, ok := ctx.Deadline(); ok && existing.Before(b.deadline) {
		return context.WithCancel(ctx)
	}
	return context.WithDeadline(ctx, b.deadline)
}

// BudgetFrom returns the budget the context carries, if any.
func BudgetFrom(ctx context.Context) (*Budget, bool) {
	b, ok := ctx.Value(budgetKey{}).(*Budget)
	return b, ok
}

// Total returns the allowance the budget started with.
func (b *Budget) Total() time.Duration { return b.total }

// Spent returns how much of the budget has elapsed so far.
func (b *Budget) Spent() time.Duration { return time.Since(b.start) }

// Remaining returns how much budget is left; zero once spent.
func (b *Budget) Remaining() time.Duration {
	if r := time.Until(b.deadline); r > 0 {
		return r
	}
	return 0
}

// Exhausted reports whether the budget is spent.
func (b *Budget) Exhausted() bool { return b.Remaining() == 0 }
