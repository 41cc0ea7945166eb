package resilience

import (
	"context"
	"testing"
	"time"
)

func TestWithBudgetEnforcesDeadline(t *testing.T) {
	ctx, cancel := WithBudget(context.Background(), 30*time.Millisecond)
	defer cancel()

	b, ok := BudgetFrom(ctx)
	if !ok {
		t.Fatal("no budget on context")
	}
	if b.Total() != 30*time.Millisecond {
		t.Fatalf("total = %v", b.Total())
	}
	if b.Exhausted() {
		t.Fatal("budget exhausted at birth")
	}
	if _, hasDeadline := ctx.Deadline(); !hasDeadline {
		t.Fatal("budget did not set a context deadline")
	}

	select {
	case <-ctx.Done():
	case <-time.After(2 * time.Second):
		t.Fatal("budget deadline never fired")
	}
	if !b.Exhausted() || b.Remaining() != 0 {
		t.Fatalf("after expiry: exhausted=%v remaining=%v", b.Exhausted(), b.Remaining())
	}
	if b.Spent() < 30*time.Millisecond {
		t.Fatalf("spent = %v, want >= total", b.Spent())
	}
}

func TestWithBudgetZeroIsNoOp(t *testing.T) {
	parent := context.Background()
	ctx, cancel := WithBudget(parent, 0)
	defer cancel()
	if ctx != parent {
		t.Fatal("zero budget changed the context")
	}
	if _, ok := BudgetFrom(ctx); ok {
		t.Fatal("zero budget recorded a budget")
	}
}

func TestWithBudgetKeepsEarlierDeadline(t *testing.T) {
	parent, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	ctx, cancel2 := WithBudget(parent, time.Hour)
	defer cancel2()

	d, ok := ctx.Deadline()
	if !ok {
		t.Fatal("no deadline")
	}
	if time.Until(d) > time.Second {
		t.Fatalf("budget overrode the earlier deadline: %v away", time.Until(d))
	}
	if _, ok := BudgetFrom(ctx); !ok {
		t.Fatal("budget not recorded for accounting")
	}
}
