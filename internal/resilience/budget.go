// Package resilience is the overload-protection toolkit the serving layers
// share: per-request deadline budgets carried on context, a bounded
// admission gate with a short timed queue, origin circuit breakers with
// active health checks, and graceful server drain.
//
// The paper's latency win only matters while the edge tier stays up; this
// package supplies the policies that make saturation degrade service
// instead of breaking it. The consumers are catalyst.Middleware (the
// degradation ladder) and cmd/catalystd (lifecycle). Everything here is
// dependency-free beyond internal/telemetry, so any layer can adopt it
// without import cycles.
//
// Time is read two ways (DESIGN.md, "Frozen values"). An age — how long a
// breaker has been open — is the caller's to measure: Breaker keeps no
// clock, and Allow and Record take the time from the caller, the serving
// path's injected clock or the health checker's wall clock. A cost — the
// request budget, the gate's queue wait, the drain timeout — runs on the
// wall clock, because it bounds real work.
package resilience

import (
	"context"
	"time"
)

// budgetKey carries a budget's deadline, a time.Time, on a context.
type budgetKey struct{}

// WithBudget returns a context carrying — and enforcing, via a real
// context deadline — a latency budget of total from now, plus the cancel
// func that releases its timer. Every downstream stage shares the one
// allowance, so whatever one stage spends is gone for the rest. A context
// that already has an earlier deadline keeps it (the stricter bound wins);
// the budget's own deadline is still recorded for BudgetSpent. total <= 0
// returns ctx unchanged with a no-op cancel.
func WithBudget(ctx context.Context, total time.Duration) (context.Context, context.CancelFunc) {
	if total <= 0 {
		return ctx, func() {}
	}
	deadline := time.Now().Add(total)
	ctx = context.WithValue(ctx, budgetKey{}, deadline)
	if existing, ok := ctx.Deadline(); ok && existing.Before(deadline) {
		return context.WithCancel(ctx)
	}
	return context.WithDeadline(ctx, deadline)
}

// BudgetSpent reports whether ctx carries a budget whose deadline has
// passed on the wall clock: the budget is a cost, not an age. An earlier
// parent deadline or a client's cancel ends the context but spends no
// budget.
func BudgetSpent(ctx context.Context) bool {
	deadline, ok := ctx.Value(budgetKey{}).(time.Time)
	return ok && !time.Now().Before(deadline)
}
