package main

import (
	"bufio"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// request is one operation the generator sends and the checker judges.
type request struct {
	target int    // index into the run's daemon addresses
	host   string // Host header
	res    *resource
	site   *site
	// inm is the If-None-Match value; empty sends an unconditional GET.
	inm string
	// mutable marks content the origin may change between choosing the
	// request and serving it, which makes a 200 to a conditional request a
	// legitimate answer as long as it carries a different, issued tag.
	mutable bool
}

// traffic produces one connection's request sequence. Each connection owns
// a source seeded from (seed, connection), so the sequence — and with it
// the request mix and the bytes per response — does not depend on how fast
// the program under test answers.
type traffic interface {
	next(c *conn) request
}

// conn is one keep-alive connection's state. It is used by one goroutine.
type conn struct {
	id      int
	rng     *rand.Rand
	addrs   []string
	socks   []*countingConn
	readers []*bufio.Reader
	// learned holds the validator each HTML page last answered a 200 with:
	// what a real client would send back in If-None-Match.
	learned map[*resource]string
	// verified holds, per page, the last X-Etag-Config value that passed
	// the full check, so an unchanged header costs one string compare.
	verified map[*resource]string
	// cursor is the connection's place in a blockTraffic sequence.
	cursor *blockCursor
	buf    []byte

	samples  []sample
	lateness []time.Duration // open loop only
	respB    int64
	attempts int64
	failures int64
	statuses map[int]int64
	firstErr error
}

// countingConn counts bytes read from the socket. With one request in
// flight per connection, every byte read between two sends belongs to the
// response in between: head and body.
type countingConn struct {
	net.Conn
	read int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.read += int64(n)
	return n, err
}

func newConn(id int, seed int64, addrs []string) *conn {
	return &conn{
		id:       id,
		rng:      rand.New(rand.NewSource(seed*1_000_033 + int64(id)*7_919 + 1)),
		addrs:    addrs,
		socks:    make([]*countingConn, len(addrs)),
		readers:  make([]*bufio.Reader, len(addrs)),
		learned:  map[*resource]string{},
		verified: map[*resource]string{},
		buf:      make([]byte, 0, 512),
		statuses: map[int]int64{},
	}
}

func (c *conn) dial(target int) error {
	s, err := net.DialTimeout("tcp", c.addrs[target], 2*time.Second)
	if err != nil {
		return err
	}
	if tc, ok := s.(*net.TCPConn); ok {
		_ = tc.SetNoDelay(true) // best effort; loopback works either way
	}
	c.socks[target] = &countingConn{Conn: s}
	c.readers[target] = bufio.NewReaderSize(c.socks[target], 64<<10)
	return nil
}

func (c *conn) close() {
	for i, s := range c.socks {
		if s != nil {
			s.Close()
			c.socks[i] = nil
		}
	}
}

func (c *conn) fail(err error) {
	c.failures++
	if c.firstErr == nil {
		c.firstErr = err
	}
}

// do sends one request and reads, checks and accounts its response. It
// returns the response bytes read, or a transport error after which the
// connection has been dropped.
func (c *conn) do(rq request) (time.Duration, error) {
	if c.socks[rq.target] == nil {
		if err := c.dial(rq.target); err != nil {
			return 0, err
		}
	}
	sock, br := c.socks[rq.target], c.readers[rq.target]
	b := append(c.buf[:0], "GET "...)
	b = append(b, rq.res.path...)
	b = append(b, " HTTP/1.1\r\nHost: "...)
	b = append(b, rq.host...)
	if rq.inm != "" {
		b = append(b, "\r\nIf-None-Match: "...)
		b = append(b, rq.inm...)
	}
	b = append(b, "\r\n\r\n"...)
	c.buf = b

	before := sock.read
	start := time.Now()
	_ = sock.SetDeadline(start.Add(10 * time.Second))
	drop := func(err error) (time.Duration, error) {
		sock.Close()
		c.socks[rq.target] = nil
		return 0, err
	}
	if _, err := sock.Write(b); err != nil {
		return drop(err)
	}
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		return drop(err)
	}
	bodyLen, err := io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if err != nil {
		return drop(err)
	}
	lat := time.Since(start)
	c.respB += sock.read - before
	c.statuses[resp.StatusCode]++
	if err := c.check(rq, resp.StatusCode, resp.Header, int(bodyLen)); err != nil {
		c.fail(err)
	}
	return lat, nil
}

// maxConsecutiveTransportErrors is when a connection gives up: the daemon
// is gone, and spinning on a refused dial until the deadline helps nobody.
const maxConsecutiveTransportErrors = 20

// runClosed drives the connection closed-loop: the next request leaves
// when the previous response has been read. It stops at the deadline, or
// after count requests when count is positive. tick, when set, is called
// before every request; page_churn advances the origin's timeline there.
func (c *conn) runClosed(tr traffic, phaseStart, deadline time.Time, count int, tick func()) {
	broken := 0
	for n := 0; broken < maxConsecutiveTransportErrors; n++ {
		if count > 0 && n >= count {
			return
		}
		if count <= 0 && !time.Now().Before(deadline) {
			return
		}
		if tick != nil {
			tick()
		}
		rq := tr.next(c)
		c.attempts++
		lat, err := c.do(rq)
		if err != nil {
			broken++
			c.fail(fmt.Errorf("%s%s: %w", rq.host, rq.res.path, err))
			continue
		}
		broken = 0
		c.samples = append(c.samples, sample{at: time.Since(phaseStart), lat: lat})
	}
}

// runOpen drives the connection open-loop at one request per interval.
// Latency runs from the scheduled send time, so a stall is charged to every
// request it delayed; lateness records how far behind schedule each send
// actually left.
func (c *conn) runOpen(tr traffic, phaseStart time.Time, offset, interval, length time.Duration, tick func()) {
	broken := 0
	for k := 0; broken < maxConsecutiveTransportErrors; k++ {
		due := phaseStart.Add(offset + time.Duration(k)*interval)
		if due.Sub(phaseStart) >= length {
			return
		}
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		late := time.Since(due)
		if late < 0 {
			late = 0
		}
		if tick != nil {
			tick()
		}
		rq := tr.next(c)
		c.attempts++
		if _, err := c.do(rq); err != nil {
			broken++
			c.fail(fmt.Errorf("%s%s: %w", rq.host, rq.res.path, err))
			continue
		}
		broken = 0
		c.lateness = append(c.lateness, late)
		c.samples = append(c.samples, sample{at: time.Since(phaseStart), lat: time.Since(due)})
	}
}

// phaseResult is what one generator phase measured.
type phaseResult struct {
	Start    time.Time
	Length   time.Duration
	Samples  []sample
	Lateness []time.Duration
	Attempts int64
	Failures int64
	RespB    int64
	Statuses map[int]int64
	GenCPU   time.Duration
	FirstErr error
}

func (p phaseResult) ok() int64 { return int64(len(p.Samples)) }

// generator owns the run's connections; phases reuse them so keep-alive
// state and learned validators carry from warm-up into measurement.
type generator struct {
	conns []*conn
	tr    traffic
	// tick is shared by all connections (it counts requests globally).
	tick func()
	// lifetime counts every request of every phase: the denominator for
	// daemon counters, which also cover a daemon's whole life.
	lifetime int64
}

func newGenerator(seed int64, nconn int, addrs []string, tr traffic) *generator {
	g := &generator{tr: tr}
	for i := 0; i < nconn; i++ {
		g.conns = append(g.conns, newConn(i, seed, addrs))
	}
	return g
}

func (g *generator) close() {
	for _, c := range g.conns {
		c.close()
	}
}

// phase runs fn on every connection concurrently and collects what they
// recorded during it.
func (g *generator) phase(length time.Duration, fn func(c *conn, start time.Time)) phaseResult {
	for _, c := range g.conns {
		c.samples, c.lateness = nil, nil
		c.respB, c.attempts, c.failures = 0, 0, 0
		c.statuses = map[int]int64{}
		c.firstErr = nil
	}
	cpu0 := selfCPU()
	start := time.Now()
	var wg sync.WaitGroup
	for _, c := range g.conns {
		wg.Add(1)
		go func(c *conn) {
			defer wg.Done()
			fn(c, start)
		}(c)
	}
	wg.Wait()
	res := phaseResult{Start: start, Length: length, GenCPU: selfCPU() - cpu0, Statuses: map[int]int64{}}
	if length == 0 {
		res.Length = time.Since(start)
	}
	for _, c := range g.conns {
		res.Samples = append(res.Samples, c.samples...)
		res.Lateness = append(res.Lateness, c.lateness...)
		res.Attempts += c.attempts
		g.lifetime += c.attempts
		res.Failures += c.failures
		res.RespB += c.respB
		for k, v := range c.statuses {
			res.Statuses[k] += v
		}
		if res.FirstErr == nil {
			res.FirstErr = c.firstErr
		}
	}
	return res
}

// warmup sends a fixed number of requests per connection: fixed work, so
// the time it takes is the program's, not the clock's.
func (g *generator) warmup(perConn int) phaseResult {
	return g.phase(0, func(c *conn, start time.Time) {
		c.runClosed(g.tr, start, time.Time{}, perConn, g.tick)
	})
}

// closed measures closed-loop for the given length.
func (g *generator) closed(length time.Duration) phaseResult {
	return g.phase(length, func(c *conn, start time.Time) {
		c.runClosed(g.tr, start, start.Add(length), 0, g.tick)
	})
}

// open measures open-loop at rate requests per second over all connections.
func (g *generator) open(length time.Duration, rate float64) phaseResult {
	n := len(g.conns)
	interval := time.Duration(float64(time.Second) * float64(n) / rate)
	return g.phase(length, func(c *conn, start time.Time) {
		c.runOpen(g.tr, start, interval*time.Duration(c.id)/time.Duration(n), interval, length, g.tick)
	})
}

// everyNth returns a tick that calls fn(k) on every n-th call, k counting
// from zero. Calls may come from several goroutines.
func everyNth(n int64, fn func(k int64)) func() {
	var calls atomic.Int64
	return func() {
		if c := calls.Add(1); c%n == 0 {
			fn(c/n - 1)
		}
	}
}
