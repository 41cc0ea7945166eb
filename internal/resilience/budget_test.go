package resilience

import (
	"context"
	"testing"
	"time"
)

func TestWithBudgetEnforcesDeadline(t *testing.T) {
	ctx, cancel := WithBudget(context.Background(), 30*time.Millisecond)
	defer cancel()

	if BudgetSpent(ctx) {
		t.Fatal("budget spent at birth")
	}
	if _, hasDeadline := ctx.Deadline(); !hasDeadline {
		t.Fatal("budget did not set a context deadline")
	}

	select {
	case <-ctx.Done():
	case <-time.After(2 * time.Second):
		t.Fatal("budget deadline never fired")
	}
	if !BudgetSpent(ctx) {
		t.Fatal("deadline fired but the budget is not spent")
	}
}

func TestWithBudgetZeroIsNoOp(t *testing.T) {
	parent := context.Background()
	ctx, cancel := WithBudget(parent, 0)
	defer cancel()
	if ctx != parent {
		t.Fatal("zero budget changed the context")
	}
	if BudgetSpent(ctx) {
		t.Fatal("a context without a budget reads spent")
	}
}

// TestWithBudgetKeepsEarlierDeadline: an earlier parent deadline bounds the
// context, but its passing spends no budget.
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
	<-ctx.Done()
	if BudgetSpent(ctx) {
		t.Fatal("the parent's earlier deadline passed, and the budget reads spent")
	}
}

// TestBudgetNotSpentByCancel: a client going away ends the context but
// spends no budget.
func TestBudgetNotSpentByCancel(t *testing.T) {
	parent, cancel := context.WithCancel(context.Background())
	ctx, cancel2 := WithBudget(parent, time.Hour)
	defer cancel2()
	cancel()
	<-ctx.Done()
	if BudgetSpent(ctx) {
		t.Fatal("a cancelled request reads its budget spent")
	}
}
