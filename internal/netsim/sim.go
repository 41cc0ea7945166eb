// Package netsim is a discrete-event network simulator.
//
// The paper evaluates page loads under throttled latency/throughput using a
// real browser's network emulation; this package provides the equivalent
// substrate for the emulated browser: a virtual-time event loop, fluid-flow
// shared-bandwidth links (parallel transfers share capacity the way
// concurrent TCP streams do), and an HTTP connection model with handshake
// costs, HTTP/1.1 connection pooling and HTTP/2 multiplexing.
//
// Virtual time makes a 100-site × network-grid × revisit-delay sweep run in
// milliseconds of wall time while preserving the quantities that determine
// page load time: round trips, transmission times and scheduling.
package netsim

import (
	"container/heap"
	"time"
)

// Sim is a single-threaded discrete-event simulator. Callbacks scheduled on
// the simulator run in timestamp order; ties break in scheduling order, so
// runs are deterministic.
type Sim struct {
	now   time.Duration
	queue eventQueue
	seq   int64
}

// NewSim returns a simulator at virtual time zero.
func NewSim() *Sim { return &Sim{} }

// Now returns the current virtual time.
func (s *Sim) Now() time.Duration { return s.now }

// At schedules fn to run at absolute virtual time t. Scheduling in the past
// runs fn at the current time (immediately-next event).
func (s *Sim) At(t time.Duration, fn func()) *Event {
	if t < s.now {
		t = s.now
	}
	ev := &Event{at: t, seq: s.seq, fn: fn}
	s.seq++
	heap.Push(&s.queue, ev)
	return ev
}

// rearm reschedules ev, this simulator's event, to run d from now. It
// orders exactly as cancelling ev and scheduling its callback afresh with
// After would: ev takes the next sequence number, and moves within the queue
// if it is still queued or joins it again if it has fired.
func (s *Sim) rearm(ev *Event, d time.Duration) {
	ev.at, ev.seq = s.now+d, s.seq
	s.seq++
	if ev.index < 0 {
		heap.Push(&s.queue, ev)
	} else {
		heap.Fix(&s.queue, ev.index)
	}
}

// After schedules fn to run d from now.
func (s *Sim) After(d time.Duration, fn func()) *Event {
	return s.At(s.now+d, fn)
}

// Run executes events until the queue drains, returning the final virtual
// time.
func (s *Sim) Run() time.Duration {
	for s.queue.Len() > 0 {
		ev := heap.Pop(&s.queue).(*Event)
		ev.index = -1 // out of the queue
		if ev.cancelled {
			continue
		}
		s.now = ev.at
		ev.fn()
	}
	return s.now
}

// Event is a scheduled callback; it can be cancelled before it fires.
type Event struct {
	at        time.Duration
	seq       int64
	fn        func()
	index     int // position in the queue; -1 once popped
	cancelled bool
}

// Cancel prevents the event from firing. Cancelling a fired or already
// cancelled event is a no-op.
func (e *Event) Cancel() { e.cancelled = true }

// eventQueue is a min-heap ordered by (time, sequence).
type eventQueue []*Event

func (q eventQueue) Len() int { return len(q) }

func (q eventQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}

func (q eventQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}

func (q *eventQueue) Push(x any) {
	ev := x.(*Event)
	ev.index = len(*q)
	*q = append(*q, ev)
}

func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return ev
}
