package netsim

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"
)

// refPipe is the Pipe as it was before it re-armed one completion event: a
// reschedule cancels the queued event and schedules a new one with After.
// It is the reference TestPipeRearmFiresInRescheduleOrder holds Pipe to.
// Events cannot be cancelled, so a reschedule bumps gen instead, and a
// completion scheduled under an older gen does nothing when it fires.
type refPipe struct {
	sim         *Sim
	bytesPerSec float64
	active      []*transfer
	lastUpdate  time.Duration
	gen         int
}

func (p *refPipe) Start(size int64, done func()) {
	if p.bytesPerSec <= 0 || size <= 0 {
		p.sim.After(0, done)
		return
	}
	p.advance()
	p.active = append(p.active, &transfer{remaining: float64(size), done: done})
	p.reschedule()
}

func (p *refPipe) advance() {
	now := p.sim.Now()
	if now <= p.lastUpdate || len(p.active) == 0 {
		p.lastUpdate = now
		return
	}
	elapsed := (now - p.lastUpdate).Seconds()
	share := p.bytesPerSec / float64(len(p.active))
	for _, t := range p.active {
		t.remaining -= elapsed * share
	}
	p.lastUpdate = now
}

func (p *refPipe) reschedule() {
	p.gen++
	if len(p.active) == 0 {
		return
	}
	minRemaining := math.Inf(1)
	for _, t := range p.active {
		if t.remaining < minRemaining {
			minRemaining = t.remaining
		}
	}
	if minRemaining < 0 {
		minRemaining = 0
	}
	share := p.bytesPerSec / float64(len(p.active))
	eta := time.Duration(math.Ceil(minRemaining / share * float64(time.Second)))
	gen := p.gen
	p.sim.After(eta, func() {
		if gen == p.gen {
			p.complete()
		}
	})
}

func (p *refPipe) complete() {
	p.advance()
	const epsilon = 1e-6
	var still, finished []*transfer
	for _, t := range p.active {
		if t.remaining <= epsilon {
			finished = append(finished, t)
		} else {
			still = append(still, t)
		}
	}
	p.active = still
	p.reschedule()
	for _, t := range finished {
		t.done()
	}
}

// pipeOp is one scheduled step of a pipe schedule: at instant at, start a
// transfer of size bytes (and, when it completes, one of then bytes if then
// is non-zero), with ticks unrelated After(0) events beside it.
type pipeOp struct {
	at         time.Duration
	size, then int64
	ticks      int
	tickFirst  bool
}

// runPipe plays ops on a fresh simulator through the pipe newPipe makes and
// returns what fired, in order, with its virtual time.
func runPipe(ops []pipeOp, newPipe func(*Sim) interface{ Start(int64, func()) }) []string {
	sim := NewSim()
	p := newPipe(sim)
	var log []string
	fired := func(what string) func() {
		return func() { log = append(log, fmt.Sprintf("%v %s", sim.Now(), what)) }
	}
	for i, op := range ops {
		i, op := i, op
		sim.At(op.at, func() {
			ticks := func() {
				for k := 0; k < op.ticks; k++ {
					sim.After(0, fired(fmt.Sprintf("tick %d.%d", i, k)))
				}
			}
			if op.tickFirst {
				ticks()
			}
			p.Start(op.size, func() {
				fired(fmt.Sprintf("done %d", i))()
				if op.then != 0 {
					p.Start(op.then, fired(fmt.Sprintf("then %d", i)))
				}
			})
			if !op.tickFirst {
				ticks()
			}
		})
	}
	sim.Run()
	return log
}

// TestPipeRearmFiresInRescheduleOrder: a Pipe re-arms its one completion
// event where it used to cancel it and schedule a new one. Over seeded
// schedules — transfers of random sizes (zero included) started at random
// instants, some chaining a second transfer from their completion, beside
// unrelated After(0) events at the same instants — every event must fire in
// exactly the order, and at exactly the time, it fires with refPipe. At 8
// Mbit/s a byte takes a microsecond, and the instants fall on whole
// microseconds, so completions often tie with other events.
func TestPipeRearmFiresInRescheduleOrder(t *testing.T) {
	const bitsPerSec = 8e6
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ops := make([]pipeOp, 1+rng.Intn(12))
		for i := range ops {
			ops[i] = pipeOp{
				at:        time.Duration(rng.Intn(40)) * time.Microsecond,
				size:      int64(rng.Intn(24)),
				ticks:     rng.Intn(3),
				tickFirst: rng.Intn(2) == 0,
			}
			if rng.Intn(3) == 0 {
				ops[i].then = int64(rng.Intn(16))
			}
		}
		got := runPipe(ops, func(s *Sim) interface{ Start(int64, func()) } { return NewPipe(s, bitsPerSec) })
		want := runPipe(ops, func(s *Sim) interface{ Start(int64, func()) } {
			return &refPipe{sim: s, bytesPerSec: bitsPerSec / 8}
		})
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d, schedule %+v:\n got %q\nwant %q", seed, ops, got, want)
		}
	}
}
