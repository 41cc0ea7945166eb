package netsim

import (
	"math"
	"time"
)

// Pipe models a bottleneck link direction with fixed capacity shared
// equally among concurrent transfers — the fluid-flow approximation of
// long-lived TCP streams sharing a last-mile link. A Pipe with zero
// capacity is infinitely fast (transfers complete after zero transmission
// time), which models the "latency-only" limit.
type Pipe struct {
	sim *Sim
	// bytesPerSec is the link capacity; 0 means unlimited.
	bytesPerSec float64
	active      []transfer
	// finished is complete's buffer of callbacks to run, kept between
	// calls.
	finished   []func()
	lastUpdate time.Duration
	// completion fires when the transfer finishing first does. The pipe
	// keeps the one event and re-arms it whenever the share changes.
	completion *event

	// TotalBytes counts all bytes ever accepted, for bytes-on-wire
	// accounting in experiments.
	TotalBytes int64
}

type transfer struct {
	remaining float64
	done      func()
}

// NewPipe returns a pipe on sim with the given capacity in bits per second
// (the unit network conditions are quoted in). bitsPerSec 0 means unlimited.
func NewPipe(sim *Sim, bitsPerSec float64) *Pipe {
	return &Pipe{sim: sim, bytesPerSec: bitsPerSec / 8}
}

// Start begins transferring size bytes; done runs when the last byte has
// been serialized onto the link. Zero- and negative-size transfers complete
// immediately (still via the event queue, preserving causal ordering).
func (p *Pipe) Start(size int64, done func()) {
	if size > 0 {
		p.TotalBytes += size
	}
	if p.bytesPerSec <= 0 || size <= 0 {
		p.sim.After(0, done)
		return
	}
	p.advance()
	p.active = append(p.active, transfer{remaining: float64(size), done: done})
	p.reschedule()
}

// advance debits elapsed transmission from all active transfers.
func (p *Pipe) advance() {
	now := p.sim.Now()
	if now <= p.lastUpdate || len(p.active) == 0 {
		p.lastUpdate = now
		return
	}
	elapsed := (now - p.lastUpdate).Seconds()
	share := p.bytesPerSec / float64(len(p.active))
	for i := range p.active {
		p.active[i].remaining -= elapsed * share
	}
	p.lastUpdate = now
}

// reschedule (re)arms the completion event for the transfer that will
// finish first under the current share. With nothing active the event has
// just fired (only complete empties the pipe), so there is nothing to
// disarm.
func (p *Pipe) reschedule() {
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
	// Round the ETA up to a whole nanosecond: truncation could otherwise
	// produce a zero-delay completion event that debits nothing and
	// reschedules itself forever.
	eta := time.Duration(math.Ceil(minRemaining / share * float64(time.Second)))
	if p.completion == nil {
		p.completion = &event{fn: p.complete, index: -1}
	}
	p.sim.rearm(p.completion, eta)
}

// complete retires every transfer that has (within float tolerance)
// finished, then reschedules.
func (p *Pipe) complete() {
	p.advance()
	const epsilon = 1e-6 // bytes; absorbs float error
	still := p.active[:0]
	finished := p.finished[:0]
	for _, t := range p.active {
		if t.remaining <= epsilon {
			finished = append(finished, t.done)
		} else {
			still = append(still, t)
		}
	}
	clear(p.active[len(still):])
	p.active = still
	p.reschedule()
	// A callback may start a transfer on this pipe, but only the
	// completion event runs complete, so finished is not reused before
	// the loop ends.
	for _, done := range finished {
		done()
	}
	clear(finished)
	p.finished = finished
}
