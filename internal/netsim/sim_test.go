package netsim

import (
	"fmt"
	"testing"
	"testing/quick"
	"time"
)

func TestEventsRunInTimeOrder(t *testing.T) {
	s := NewSim()
	var order []int
	s.After(30*time.Millisecond, func() { order = append(order, 3) })
	s.After(10*time.Millisecond, func() { order = append(order, 1) })
	s.After(20*time.Millisecond, func() { order = append(order, 2) })
	end := s.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
	if end != 30*time.Millisecond {
		t.Fatalf("final time = %v", end)
	}
}

func TestTiesBreakInSchedulingOrder(t *testing.T) {
	s := NewSim()
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		s.After(time.Millisecond, func() { order = append(order, i) })
	}
	s.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("tie order = %v", order)
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	s := NewSim()
	var at []time.Duration
	s.After(10*time.Millisecond, func() {
		at = append(at, s.Now())
		s.After(5*time.Millisecond, func() {
			at = append(at, s.Now())
		})
	})
	s.Run()
	if len(at) != 2 || at[0] != 10*time.Millisecond || at[1] != 15*time.Millisecond {
		t.Fatalf("at = %v", at)
	}
}

func TestSchedulingInPastClampsToNow(t *testing.T) {
	s := NewSim()
	var fired time.Duration
	s.After(10*time.Millisecond, func() {
		s.At(0, func() { fired = s.Now() })
	})
	s.Run()
	if fired != 10*time.Millisecond {
		t.Fatalf("past event fired at %v", fired)
	}
}

// TestFiredEventsAreRecycled: an event goes back on the free list when it
// fires, before its callback runs, so a chain of events scheduled one from
// another's callback reuses one event throughout, and a simulation holds no
// more events than its queue's peak.
func TestFiredEventsAreRecycled(t *testing.T) {
	s := NewSim()
	free := func() (n int) {
		for ev := s.free; ev != nil; ev = ev.next {
			n++
		}
		return n
	}
	var order []int
	var chain func(i int)
	chain = func(i int) {
		order = append(order, i)
		if i < 100 {
			s.After(time.Millisecond, func() { chain(i + 1) })
		}
	}
	for i := 0; i < 3; i++ {
		s.After(0, func() {})
	}
	s.After(0, func() { chain(0) })
	if end := s.Run(); end != 100*time.Millisecond {
		t.Fatalf("chain ended at %v, want 100ms", end)
	}
	if len(order) != 101 || order[100] != 100 {
		t.Fatalf("chain ran %d links", len(order))
	}
	if n := free(); n != 4 {
		t.Fatalf("free list holds %d events after a run whose queue peaked at 4", n)
	}
	var fired []int
	for i := 0; i < 6; i++ {
		s.After(time.Duration(6-i), func() { fired = append(fired, i) })
	}
	if n := free(); n != 0 {
		t.Fatalf("free list holds %d events after 6 were scheduled from 4", n)
	}
	s.Run()
	if fmt.Sprint(fired) != "[5 4 3 2 1 0]" {
		t.Fatalf("recycled events fired in order %v", fired)
	}
	if n := free(); n != 6 {
		t.Fatalf("free list holds %d events, want 6", n)
	}
}

func TestRunEmptyQueue(t *testing.T) {
	if end := NewSim().Run(); end != 0 {
		t.Fatalf("empty run ended at %v", end)
	}
}

// Property: virtual time never decreases across an arbitrary schedule.
func TestTimeMonotoneQuick(t *testing.T) {
	f := func(delays []uint16) bool {
		s := NewSim()
		last := time.Duration(-1)
		ok := true
		for _, d := range delays {
			s.After(time.Duration(d)*time.Microsecond, func() {
				if s.Now() < last {
					ok = false
				}
				last = s.Now()
			})
		}
		s.Run()
		return ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPipeSingleTransfer(t *testing.T) {
	s := NewSim()
	p := NewPipe(s, 8e6) // 8 Mbps = 1 MB/s
	var done time.Duration
	p.Start(1_000_000, func() { done = s.Now() })
	s.Run()
	if got, want := done, time.Second; !approxDuration(got, want, time.Millisecond) {
		t.Fatalf("1MB at 1MB/s took %v, want ~%v", got, want)
	}
}

func TestPipeUnlimitedIsInstant(t *testing.T) {
	s := NewSim()
	p := NewPipe(s, 0)
	var done time.Duration = -1
	p.Start(1<<30, func() { done = s.Now() })
	s.Run()
	if done != 0 {
		t.Fatalf("unlimited pipe took %v", done)
	}
}

func TestPipeZeroSizeCompletes(t *testing.T) {
	s := NewSim()
	p := NewPipe(s, 1e6)
	calls := 0
	p.Start(0, func() { calls++ })
	p.Start(-5, func() { calls++ })
	s.Run()
	if calls != 2 {
		t.Fatalf("zero/negative transfers: %d done calls", calls)
	}
}

func TestPipeFairSharing(t *testing.T) {
	// Two equal transfers sharing the link must each take twice as long as
	// one alone, finishing together.
	s := NewSim()
	p := NewPipe(s, 8e6) // 1 MB/s
	var t1, t2 time.Duration
	p.Start(500_000, func() { t1 = s.Now() })
	p.Start(500_000, func() { t2 = s.Now() })
	s.Run()
	if !approxDuration(t1, time.Second, 5*time.Millisecond) || !approxDuration(t2, time.Second, 5*time.Millisecond) {
		t.Fatalf("shared transfers finished at %v, %v; want ~1s each", t1, t2)
	}
}

func TestPipeShortTransferDelaysLong(t *testing.T) {
	// 1 MB/s link. A 1MB transfer alone takes 1s. With a 250KB transfer
	// sharing for its duration: the short one gets 0.5 MB/s → finishes at
	// 0.5s having moved 250KB; the long one then has 750KB left at full
	// rate → 0.5 + 0.75 = 1.25s.
	s := NewSim()
	p := NewPipe(s, 8e6)
	var short, long time.Duration
	p.Start(1_000_000, func() { long = s.Now() })
	p.Start(250_000, func() { short = s.Now() })
	s.Run()
	if !approxDuration(short, 500*time.Millisecond, 5*time.Millisecond) {
		t.Errorf("short finished at %v, want ~0.5s", short)
	}
	if !approxDuration(long, 1250*time.Millisecond, 5*time.Millisecond) {
		t.Errorf("long finished at %v, want ~1.25s", long)
	}
}

func TestPipeLateJoiner(t *testing.T) {
	// 1 MB/s. A starts at t=0 (500KB). B (500KB) joins at t=0.25s when A
	// has 250KB left; both then get 0.5 MB/s. A finishes at 0.25+0.5=0.75s.
	// B has 250KB left at 0.75s, alone at 1MB/s → finishes 1.0s.
	s := NewSim()
	p := NewPipe(s, 8e6)
	var ta, tb time.Duration
	p.Start(500_000, func() { ta = s.Now() })
	s.After(250*time.Millisecond, func() {
		p.Start(500_000, func() { tb = s.Now() })
	})
	s.Run()
	if !approxDuration(ta, 750*time.Millisecond, 5*time.Millisecond) {
		t.Errorf("A finished at %v, want ~0.75s", ta)
	}
	if !approxDuration(tb, time.Second, 5*time.Millisecond) {
		t.Errorf("B finished at %v, want ~1s", tb)
	}
}

func TestPipeTotalBytes(t *testing.T) {
	s := NewSim()
	p := NewPipe(s, 1e6)
	p.Start(100, func() {})
	p.Start(200, func() {})
	p.Start(0, func() {})
	s.Run()
	if p.TotalBytes != 300 {
		t.Fatalf("TotalBytes = %d", p.TotalBytes)
	}
}

// Property (conservation + work): n transfers of total size S over a link of
// rate R all complete, and the last completion is at least S/R (the link
// cannot move bytes faster than capacity) and at most S/R + ε.
func TestPipeConservationQuick(t *testing.T) {
	f := func(sizes []uint16) bool {
		s := NewSim()
		const rate = 1e6 // bytes/s equivalent: pass 8e6 bits
		p := NewPipe(s, 8e6)
		var total float64
		completed := 0
		n := 0
		for _, sz := range sizes {
			if sz == 0 {
				continue
			}
			n++
			total += float64(sz)
			p.Start(int64(sz), func() { completed++ })
		}
		end := s.Run()
		if completed != n {
			return false
		}
		if n == 0 {
			return true
		}
		ideal := total / rate
		gotSecs := end.Seconds()
		// Work conservation: busy link finishes exactly when the ideal
		// fluid model says (within float tolerance).
		return gotSecs >= ideal-1e-6 && gotSecs <= ideal+1e-3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func approxDuration(got, want, tol time.Duration) bool {
	d := got - want
	if d < 0 {
		d = -d
	}
	return d <= tol
}
