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
//
// Sim.At and Sim.After return nothing: a scheduled callback cannot be
// cancelled, so the simulator recycles an event once it has fired, and a
// simulation allocates no more events than its queue ever held at once.
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
	// free holds fired events for At to reuse, linked through next.
	free *event
}

// NewSim returns a simulator at virtual time zero.
func NewSim() *Sim { return &Sim{} }

// Now returns the current virtual time.
func (s *Sim) Now() time.Duration { return s.now }

// At schedules fn to run at absolute virtual time t. Scheduling in the past
// runs fn at the current time (immediately-next event).
func (s *Sim) At(t time.Duration, fn func()) {
	if t < s.now {
		t = s.now
	}
	ev := s.free
	if ev != nil {
		s.free, ev.next = ev.next, nil
	} else {
		ev = &event{recycled: true}
	}
	ev.at, ev.seq, ev.fn = t, s.seq, fn
	s.seq++
	heap.Push(&s.queue, ev)
}

// rearm reschedules ev, an event its owner keeps, to run d from now. It
// orders exactly as scheduling ev's callback afresh with After would: ev
// takes the next sequence number, and moves within the queue if it is still
// queued or joins it again if it has fired.
func (s *Sim) rearm(ev *event, d time.Duration) {
	ev.at, ev.seq = s.now+d, s.seq
	s.seq++
	if ev.index < 0 {
		heap.Push(&s.queue, ev)
	} else {
		heap.Fix(&s.queue, ev.index)
	}
}

// After schedules fn to run d from now.
func (s *Sim) After(d time.Duration, fn func()) {
	s.At(s.now+d, fn)
}

// Run executes events until the queue drains, returning the final virtual
// time.
func (s *Sim) Run() time.Duration {
	for s.queue.Len() > 0 {
		ev := heap.Pop(&s.queue).(*event)
		ev.index = -1 // out of the queue
		s.now = ev.at
		fn := ev.fn
		if ev.recycled {
			ev.fn, ev.next, s.free = nil, s.free, ev
		}
		fn()
	}
	return s.now
}

// event is a scheduled callback. At's events go back on the simulator's
// free list when they fire; an event made elsewhere (a Pipe's completion)
// stays its maker's, to re-arm.
type event struct {
	at       time.Duration
	seq      int64
	fn       func()
	index    int // position in the queue; -1 once popped
	recycled bool
	next     *event // the free list's link
}

// eventQueue is a min-heap ordered by (time, sequence).
type eventQueue []*event

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
	ev := x.(*event)
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
