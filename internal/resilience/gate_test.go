package resilience

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"cachecatalyst/internal/leakcheck"
	"cachecatalyst/internal/telemetry"
)

func TestGateAdmitsUpToCapacity(t *testing.T) {
	g := newGate(GateOptions{MaxInflight: 2}, 0, queueTimeout) // no queue: immediate shed
	for i := 0; i < 2; i++ {
		if err := g.AcquireSlot(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	if g.Inflight() != 2 {
		t.Fatalf("inflight = %d", g.Inflight())
	}
	if err := g.AcquireSlot(context.Background()); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("third acquire: %v, want ErrQueueFull", err)
	}
	g.Release()
	if g.Inflight() != 1 {
		t.Fatalf("inflight after release = %d", g.Inflight())
	}
	if err := g.AcquireSlot(context.Background()); err != nil {
		t.Fatalf("acquire after release: %v", err)
	}
	g.Release()
	g.Release()
	if g.Admitted() != 3 || g.Shed() != 1 {
		t.Fatalf("admitted=%d shed=%d", g.Admitted(), g.Shed())
	}
}

func TestGateQueueTimesOut(t *testing.T) {
	g := newGate(GateOptions{MaxInflight: 1}, 4, 5*time.Millisecond)
	if err := g.AcquireSlot(context.Background()); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := g.AcquireSlot(context.Background()); !errors.Is(err, ErrQueueTimeout) {
		t.Fatalf("queued acquire: %v, want ErrQueueTimeout", err)
	}
	if waited := time.Since(start); waited < 5*time.Millisecond || waited > time.Second {
		t.Fatalf("waited %v, want ~5ms", waited)
	}
	g.Release()
}

func TestGateQueueDrainsToWaiter(t *testing.T) {
	leakcheck.Check(t)
	g := newGate(GateOptions{MaxInflight: 1}, 4, 2*time.Second)
	if err := g.AcquireSlot(context.Background()); err != nil {
		t.Fatal(err)
	}
	got := make(chan error, 1)
	go func() {
		err := g.AcquireSlot(context.Background())
		if err == nil {
			g.Release()
		}
		got <- err
	}()
	time.Sleep(10 * time.Millisecond) // let the waiter queue
	g.Release()
	select {
	case err := <-got:
		if err != nil {
			t.Fatalf("waiter: %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("queued waiter never got the freed slot")
	}
}

func TestGateCancelledContextSheds(t *testing.T) {
	g := newGate(GateOptions{MaxInflight: 1}, 4, time.Minute)
	if err := g.AcquireSlot(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer g.Release()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	if err := g.AcquireSlot(ctx); !errors.Is(err, ErrQueueTimeout) {
		t.Fatalf("cancelled acquire: %v", err)
	}
	if time.Since(start) > time.Second {
		t.Fatal("cancelled waiter did not unblock promptly")
	}
}

func TestGateTelemetry(t *testing.T) {
	reg := telemetry.NewRegistry()
	g := newGate(GateOptions{MaxInflight: 1, Telemetry: reg, Name: "test.gate"}, 0, queueTimeout)
	if err := g.AcquireSlot(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := g.AcquireSlot(context.Background()); err == nil { // shed: no queue
		t.Fatal("second acquire admitted past the only slot")
	}
	g.Release()
	snap := reg.Snapshot()
	if snap.Counters["test.gate.admitted"] != 1 || snap.Counters["test.gate.shed_full"] != 1 {
		t.Fatalf("counters: %+v", snap.Counters)
	}
	if snap.Gauges["test.gate.inflight"] != 0 {
		t.Fatalf("inflight gauge: %+v", snap.Gauges)
	}
}

func TestGateConcurrentStress(t *testing.T) {
	leakcheck.Check(t)
	g := newGate(GateOptions{MaxInflight: 4}, 8, time.Millisecond)
	var wg sync.WaitGroup
	var served, shed telemetry.Counter
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := g.AcquireSlot(context.Background()); err != nil {
				shed.Add(1)
				return
			}
			time.Sleep(100 * time.Microsecond)
			g.Release()
			served.Add(1)
		}()
	}
	wg.Wait()
	if g.Inflight() != 0 {
		t.Fatalf("slots leaked: %d", g.Inflight())
	}
	if served.Load()+shed.Load() != 64 {
		t.Fatalf("served %d + shed %d != 64", served.Load(), shed.Load())
	}
	if served.Load() != g.Admitted() || shed.Load() != g.Shed() {
		t.Fatalf("accounting mismatch: served=%d admitted=%d shed=%d gateShed=%d",
			served.Load(), g.Admitted(), shed.Load(), g.Shed())
	}
}

// TestNewGateFreezesTheQueue pins the values no program sets: as many may
// wait as may run, each for 50 ms.
func TestNewGateFreezesTheQueue(t *testing.T) {
	g := NewGate(GateOptions{MaxInflight: 3})
	if cap(g.slots) != 3 || g.maxQueue != 3 || g.timeout != 50*time.Millisecond {
		t.Fatalf("slots %d, queue %d, wait %v; want 3, 3 and 50ms", cap(g.slots), g.maxQueue, g.timeout)
	}
}
