package netsim

import (
	"context"
	"fmt"
	"net/http"
	"time"

	"cachecatalyst/internal/httpcache"
)

// Request is the simulator's HTTP request representation. Bodies are not
// modelled: page loading is GET-only.
type Request struct {
	Method string
	Path   string
	// Header is not written after the request is sent: an origin may read
	// it in place (server.NewOrigin hands it to the Server uncopied).
	Header http.Header
	// Ctx, when non-nil, is the caller's request context. Adapters that
	// bridge to real handlers (server.NewOrigin, HandlerFromOrigin)
	// attach it to the inner http.Request, so cancelling the caller
	// cancels probe fan-outs and origin work end to end.
	Ctx context.Context
}

// Context returns the request's context, defaulting to Background.
func (r *Request) Context() context.Context {
	if r.Ctx != nil {
		return r.Ctx
	}
	return context.Background()
}

// Origin answers simulated requests. internal/server adapts the real
// net/http handler to this interface, so the simulation exercises the exact
// header logic a real deployment would.
type Origin interface {
	RoundTrip(req *Request) *httpcache.Response
}

// Stalling is an optional Origin interface for fault injection: an origin
// implementing it can charge extra server-side virtual time (a latency
// spike or stall) per request, on top of TransportOptions.ServerThink.
type Stalling interface {
	StallFor(req *Request) time.Duration
}

// Draining is an optional Origin interface modelling slow-reader clients:
// the returned duration is extra virtual time the client takes to drain
// the response body after the last byte would otherwise have arrived. The
// connection stays occupied the whole time — the fault that exhausts
// server-side connection slots without any request-rate increase.
type Draining interface {
	DrainFor(req *Request, resp *httpcache.Response) time.Duration
}

// Conditions describes the emulated network between client and origin,
// mirroring the browser-throttling knobs used in the paper's evaluation.
type Conditions struct {
	// RTT is the full client↔origin round-trip time.
	RTT time.Duration
	// DownlinkBps / UplinkBps are capacities in bits per second; zero
	// means unlimited.
	DownlinkBps float64
	UplinkBps   float64
}

// String renders conditions the way the paper labels them, e.g.
// "60Mbps/40ms".
func (c Conditions) String() string {
	return fmt.Sprintf("%gMbps/%dms", c.DownlinkBps/1e6, c.RTT.Milliseconds())
}

// TransportOptions tunes the HTTP connection model.
type TransportOptions struct {
	// MaxConns bounds parallel HTTP/1.1 connections per origin (browsers
	// use 6). Ignored under H2. Zero selects the default of 6.
	MaxConns int
	// H2 multiplexes all requests over one connection.
	H2 bool
	// TLSHandshakeRTTs is the extra round trips for TLS setup on a new
	// connection (1 for TLS 1.3). Negative is treated as zero.
	TLSHandshakeRTTs int
	// ServerThink is origin processing time per request.
	ServerThink time.Duration
	// SlowStart models TCP congestion-window growth: a response larger
	// than the connection's current window needs extra round trips before
	// its last byte can leave, regardless of link bandwidth. The window
	// starts at InitialWindow segments and doubles per round trip,
	// persisting across exchanges on the same connection — so warm
	// connections transfer large bodies faster than cold ones.
	SlowStart bool
	// InitialWindow is the starting congestion window in MSS-sized
	// segments; zero selects the RFC 6928 IW10.
	InitialWindow int
}

// mss is the segment size used by the slow-start model.
const mss = 1460

func (o TransportOptions) initialWindow() int {
	if o.InitialWindow > 0 {
		return o.InitialWindow
	}
	return 10
}

func (o TransportOptions) maxConns() int {
	if o.H2 {
		return 1
	}
	if o.MaxConns <= 0 {
		return 6
	}
	return o.MaxConns
}

func (o TransportOptions) handshakeRTTs() int {
	tls := o.TLSHandshakeRTTs
	if tls < 0 {
		tls = 0
	}
	return 1 + tls // TCP + TLS
}

// FetchResult reports one completed exchange.
type FetchResult struct {
	Resp *httpcache.Response
	// Start is when the fetch was requested; End when the last response
	// byte arrived.
	Start, End time.Duration
	// NewConnection is true when the exchange paid connection setup.
	NewConnection bool
}

// Stats aggregates transport activity for bytes-on-wire reporting.
type Stats struct {
	Requests      int64
	Handshakes    int64
	BytesDown     int64
	BytesUp       int64
	ResponseBytes int64 // body bytes only
}

// Endpoint is the client side of a simulated HTTP session to one origin:
// a connection pool over shared up/down pipes.
type Endpoint struct {
	sim    *Sim
	cond   Conditions
	origin Origin
	opts   TransportOptions
	down   *Pipe
	up     *Pipe

	conns   []*simConn
	waiting []*pendingFetch

	stats Stats
}

type pendingFetch struct {
	req  *Request
	done func(FetchResult)
	t0   time.Duration
	// onHints, when set, receives the response headers early — the 103
	// Early Hints model. See Endpoint.FetchWithHints.
	onHints func(http.Header)

	// The round trip's state: the connection it runs on, whether that
	// connection was opened for it, and the response once the origin has
	// answered. step runs the round trip's next stage; each stage
	// schedules step again, so a round trip makes one callback, not one
	// per stage.
	conn         *simConn
	isNew        bool
	stage        int
	step         func()
	think, drain time.Duration
	resp         *httpcache.Response
	respBytes    int64
}

type simConn struct {
	established bool
	busy        bool
	// cwnd is the congestion window in MSS segments (slow-start model).
	cwnd int
}

// NewEndpoint returns an endpoint to origin under the given conditions.
func NewEndpoint(sim *Sim, cond Conditions, origin Origin, opts TransportOptions) *Endpoint {
	return &Endpoint{
		sim:    sim,
		cond:   cond,
		origin: origin,
		opts:   opts,
		down:   NewPipe(sim, cond.DownlinkBps),
		up:     NewPipe(sim, cond.UplinkBps),
	}
}

// Stats returns a snapshot of transport counters.
func (e *Endpoint) Stats() Stats { return e.stats }

// Fetch performs a GET-style exchange; done runs when the full response has
// arrived. Under H2, concurrent fetches multiplex over one connection; under
// HTTP/1.1 they queue for up to MaxConns parallel connections.
func (e *Endpoint) Fetch(req *Request, done func(FetchResult)) {
	e.FetchWithHints(req, nil, done)
}

// FetchWithHints is Fetch with an informational-response channel: when the
// origin's response carries Link headers and onHints is non-nil, a small
// 103 Early Hints interim response is modelled on the downlink and onHints
// runs with the response headers, which it must not write (the ownership
// rule on httpcache.Response), as soon as it propagates —
// ahead of the (typically much larger) final response body. The model is
// conservative: the hints leave after origin processing, so they beat the
// body by its serialization time rather than the server think time a real
// 103 (sent before the handler runs) can also save.
func (e *Endpoint) FetchWithHints(req *Request, onHints func(http.Header), done func(FetchResult)) {
	p := &pendingFetch{req: req, done: done, t0: e.sim.Now(), onHints: onHints}
	if e.opts.H2 {
		e.fetchH2(p)
		return
	}
	e.dispatch(p)
}

// dispatch assigns a pending fetch to an idle connection, opens a new one,
// or queues.
func (e *Endpoint) dispatch(p *pendingFetch) {
	for _, c := range e.conns {
		if c.established && !c.busy {
			c.busy = true
			e.roundTrip(c, p, false)
			return
		}
	}
	if len(e.conns) < e.opts.maxConns() {
		c := &simConn{busy: true, cwnd: e.opts.initialWindow()}
		e.conns = append(e.conns, c)
		e.stats.Handshakes++
		setup := time.Duration(e.opts.handshakeRTTs()) * e.cond.RTT
		e.sim.After(setup, func() {
			c.established = true
			e.roundTrip(c, p, true)
		})
		return
	}
	e.waiting = append(e.waiting, p)
}

// release frees h1 connection c when its exchange completes, handing it
// to the first queued fetch if there is one.
func (e *Endpoint) release(c *simConn) {
	c.busy = false
	if len(e.waiting) > 0 {
		next := e.waiting[0]
		e.waiting = e.waiting[1:]
		c.busy = true
		e.roundTrip(c, next, false)
	}
}

// fetchH2 multiplexes the fetch over the single H2 connection, creating it
// on first use. Requests issued during the handshake wait for it.
func (e *Endpoint) fetchH2(p *pendingFetch) {
	if len(e.conns) == 0 {
		c := &simConn{cwnd: e.opts.initialWindow()}
		e.conns = append(e.conns, c)
		e.stats.Handshakes++
		setup := time.Duration(e.opts.handshakeRTTs()) * e.cond.RTT
		e.sim.After(setup, func() {
			c.established = true
			e.drainH2()
		})
		e.waiting = append(e.waiting, p)
		return
	}
	if !e.conns[0].established {
		e.waiting = append(e.waiting, p)
		return
	}
	e.roundTrip(e.conns[0], p, false)
}

func (e *Endpoint) drainH2() {
	waiting := e.waiting
	e.waiting = nil
	for _, p := range waiting {
		e.roundTrip(e.conns[0], p, true)
	}
}

// roundTrip models: ½RTT request propagation + request serialization on the
// uplink, origin processing, response serialization on the shared downlink
// + ½RTT propagation. An h1 connection is released when the response
// completes, before the caller's done callback runs.
func (e *Endpoint) roundTrip(c *simConn, p *pendingFetch, isNew bool) {
	e.stats.Requests++
	reqBytes := RequestWireSize(p.req)
	e.stats.BytesUp += reqBytes
	p.think = e.opts.ServerThink
	if s, ok := e.origin.(Stalling); ok {
		p.think += s.StallFor(p.req)
	}
	p.conn, p.isNew = c, isNew
	p.step = func() { e.roundTripStage(p) }
	e.up.Start(reqBytes, p.step)
}

// roundTripStage runs p's next stage and schedules the one after it.
func (e *Endpoint) roundTripStage(p *pendingFetch) {
	p.stage++
	switch p.stage {
	case 1:
		// Request propagates to the origin.
		e.sim.After(e.cond.RTT/2+p.think, p.step)
	case 2:
		resp := e.origin.RoundTrip(p.req)
		p.resp, p.respBytes = resp, ResponseWireSize(resp)
		e.stats.BytesDown += p.respBytes
		e.stats.ResponseBytes += int64(len(resp.Body))
		if p.onHints != nil {
			if links := resp.Header.Values("Link"); len(links) > 0 {
				hintBytes := earlyHintsWireSize(links)
				e.stats.BytesDown += hintBytes
				e.down.Start(hintBytes, func() {
					e.sim.After(e.cond.RTT/2, func() {
						p.onHints(resp.Header)
					})
				})
			}
		}
		if d, ok := e.origin.(Draining); ok {
			p.drain = d.DrainFor(p.req, resp)
		}
		e.sim.After(e.slowStartStall(p.conn, p.respBytes), p.step)
	case 3:
		e.down.Start(p.respBytes, p.step)
	case 4:
		// Last byte propagates back to the client; a slow-reader drain
		// keeps the connection busy past that, which is the whole point
		// of the fault.
		e.sim.After(e.cond.RTT/2+p.drain, p.step)
	default:
		if !e.opts.H2 {
			e.release(p.conn)
		}
		p.done(FetchResult{
			Resp:          p.resp,
			Start:         p.t0,
			End:           e.sim.Now(),
			NewConnection: p.isNew,
		})
	}
}

// maxCwnd caps congestion-window growth (≈3 MB in flight).
const maxCwnd = 2048

// slowStartStall returns the ACK-clocking delay a response of size bytes
// suffers on connection c, and grows c's window. With slow start disabled
// (or a window large enough) the stall is zero: the fluid pipe alone
// governs transfer time.
func (e *Endpoint) slowStartStall(c *simConn, bytes int64) time.Duration {
	if !e.opts.SlowStart || c == nil {
		return 0
	}
	segs := int((bytes + mss - 1) / mss)
	if segs <= 0 {
		segs = 1
	}
	rounds := 0
	w := c.cwnd
	remaining := segs
	for remaining > 0 {
		remaining -= w
		rounds++
		if w < maxCwnd {
			w *= 2
			if w > maxCwnd {
				w = maxCwnd
			}
		}
	}
	c.cwnd = w
	return time.Duration(rounds-1) * e.cond.RTT
}

// RequestWireSize returns the serialized size of a request head in bytes
// (request line + headers + terminating CRLF).
func RequestWireSize(req *Request) int64 {
	n := int64(len(req.Method) + 1 + len(req.Path) + len(" HTTP/1.1\r\n"))
	n += headerWireSize(req.Header)
	return n + 2
}

// ResponseWireSize returns the serialized size of a response in bytes
// (status line + headers + CRLF + body).
func ResponseWireSize(resp *httpcache.Response) int64 {
	n := int64(len("HTTP/1.1 200 OK\r\n"))
	n += headerWireSize(resp.Header)
	return n + 2 + int64(len(resp.Body))
}

// earlyHintsWireSize returns the serialized size of a 103 interim response
// carrying the given Link header values.
func earlyHintsWireSize(links []string) int64 {
	n := int64(len("HTTP/1.1 103 Early Hints\r\n"))
	for _, v := range links {
		n += int64(len("Link: ") + len(v) + len("\r\n"))
	}
	return n + 2
}

func headerWireSize(h http.Header) int64 {
	if len(h) == 0 {
		return 0
	}
	var n int64
	for k, vs := range h {
		for _, v := range vs {
			n += int64(len(k) + len(": ") + len(v) + len("\r\n"))
		}
	}
	return n
}
