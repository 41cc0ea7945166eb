package netsim

import (
	"math/rand"
	"net/http"
	"sync"
	"time"

	"cachecatalyst/internal/httpcache"
	"cachecatalyst/internal/telemetry"
)

// etagConfigHeader is the proactive-token header ChaosOrigin can corrupt.
// Duplicated from internal/core to keep netsim free of a core dependency.
const etagConfigHeader = "X-Etag-Config"

// ChaosConfig describes one cell of the fault-injection matrix: each knob
// is an independent failure mode, and any combination may be enabled at
// once. All randomness is driven by Seed, so a cell replays identically —
// the property the chaos suite's catalyst-vs-conventional comparisons and
// cache-poisoning audits depend on.
type ChaosConfig struct {
	// Seed drives the probabilistic faults; runs with equal seeds and
	// equal request sequences inject identical faults.
	Seed int64

	// FailProb is the probability a request is answered with an
	// uncacheable 503 before reaching the inner origin.
	FailProb float64

	// TruncateProb is the probability a successful 200 response with a
	// body is cut mid-body (a connection reset after the headers): the
	// client receives a prefix of the body with Truncated set.
	TruncateProb float64

	// CorruptMapProb is the probability an X-Etag-Config header is
	// truncated in transit, leaving undecodable JSON. Clients must treat
	// the mangled map as absent, never fail the load.
	CorruptMapProb float64

	// StallProb/StallFor inject latency spikes: with probability
	// StallProb the origin stalls StallFor of extra virtual time before
	// answering.
	StallProb float64
	StallFor  time.Duration

	// UpFor/DownFor make the origin flap: it answers UpFor requests
	// normally, then 503s the next DownFor, repeating (healthy → down →
	// healthy). Both zero disables flapping.
	UpFor, DownFor int

	// SlowReadProb/SlowReadFor inject slow-reader clients: with
	// probability SlowReadProb the client drains the response body
	// SlowReadFor more slowly than the link allows, occupying the
	// connection the whole time. This is the overload mode that exhausts
	// connection slots without any request-rate increase.
	SlowReadProb float64
	SlowReadFor  time.Duration

	// BurstEvery/BurstSize inject concurrency spikes: every BurstEvery-th
	// request is amplified into BurstSize concurrent duplicate requests
	// against the inner origin (only the original's response is
	// delivered). Zero BurstEvery disables bursts.
	BurstEvery, BurstSize int

	// BrownoutEvery/BrownoutLen/BrownoutStall inject long brown-outs:
	// after every BrownoutEvery normally-timed requests, the next
	// BrownoutLen requests each stall BrownoutStall — a sustained
	// slowdown window, distinct from both the one-request latency spike
	// (StallProb) and the hard-down flap (DownFor). Zero BrownoutEvery
	// disables brown-outs.
	BrownoutEvery, BrownoutLen int
	BrownoutStall              time.Duration
}

// flapping reports whether the flap cycle is configured.
func (c ChaosConfig) flapping() bool { return c.UpFor > 0 && c.DownFor > 0 }

// ChaosStats counts injected faults per failure mode.
type ChaosStats struct {
	Requests       int64
	Failures       int64 // probabilistic 503s
	FlapFailures   int64 // 503s from the down phase of the flap cycle
	Truncations    int64
	CorruptedMaps  int64
	Stalls         int64
	SlowReads      int64 // slow-reader drains injected
	Bursts         int64 // burst events (each fired BurstSize-1 extras)
	BurstRequests  int64 // extra duplicate requests fired by bursts
	BrownoutStalls int64 // requests stalled inside a brown-out window
}

// Injected returns the total number of faults of any kind.
func (s ChaosStats) Injected() int64 {
	return s.Failures + s.FlapFailures + s.Truncations + s.CorruptedMaps +
		s.Stalls + s.SlowReads + s.Bursts + s.BrownoutStalls
}

// ChaosOrigin wraps an origin with the full fault-injection matrix. It is
// safe for concurrent use, so real-socket tests (catalyst.Client) and the
// single-threaded simulator can both drive it.
type ChaosOrigin struct {
	inner Origin
	cfg   ChaosConfig

	// mu serializes the rng and the request sequencer — replay
	// determinism. The counters are atomic telemetry instruments and are
	// bumped without the lock where possible.
	mu    sync.Mutex
	rng   *rand.Rand
	count int64
	// stallSeq sequences StallFor draws independently of RoundTrip order:
	// the transport asks for stalls before dispatching, so sharing count
	// would entangle the two sequences and break replay determinism.
	stallSeq int64

	requests, failures, flapFailures   telemetry.Counter
	truncations, corruptedMaps, stalls telemetry.Counter
	slowReads, bursts, burstRequests   telemetry.Counter
	brownoutStalls                     telemetry.Counter
}

// NewChaosOrigin returns inner wrapped in the fault matrix cfg describes.
func NewChaosOrigin(inner Origin, cfg ChaosConfig) *ChaosOrigin {
	return &ChaosOrigin{inner: inner, cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
}

// Stats returns a snapshot of injected-fault counters.
func (c *ChaosOrigin) Stats() ChaosStats {
	return ChaosStats{
		Requests:       c.requests.Load(),
		Failures:       c.failures.Load(),
		FlapFailures:   c.flapFailures.Load(),
		Truncations:    c.truncations.Load(),
		CorruptedMaps:  c.corruptedMaps.Load(),
		Stalls:         c.stalls.Load(),
		SlowReads:      c.slowReads.Load(),
		Bursts:         c.bursts.Load(),
		BurstRequests:  c.burstRequests.Load(),
		BrownoutStalls: c.brownoutStalls.Load(),
	}
}

// RegisterTelemetry indexes the origin's fault counters in reg under name
// (e.g. "chaos.requests"); the registry reads the same storage Stats()
// snapshots.
func (c *ChaosOrigin) RegisterTelemetry(reg *telemetry.Registry, name string) {
	reg.RegisterCounter(name+".requests", &c.requests)
	reg.RegisterCounter(name+".failures", &c.failures)
	reg.RegisterCounter(name+".flap_failures", &c.flapFailures)
	reg.RegisterCounter(name+".truncations", &c.truncations)
	reg.RegisterCounter(name+".corrupted_maps", &c.corruptedMaps)
	reg.RegisterCounter(name+".stalls", &c.stalls)
	reg.RegisterCounter(name+".slow_reads", &c.slowReads)
	reg.RegisterCounter(name+".bursts", &c.bursts)
	reg.RegisterCounter(name+".burst_requests", &c.burstRequests)
	reg.RegisterCounter(name+".brownout_stalls", &c.brownoutStalls)
}

// StallFor implements Stalling: it draws the latency-spike fault for one
// request and overlays the brown-out window — BrownoutLen consecutive
// requests of sustained stall after every BrownoutEvery normal ones.
func (c *ChaosOrigin) StallFor(req *Request) time.Duration {
	probabilistic := c.cfg.StallProb > 0 && c.cfg.StallFor > 0
	brownout := c.cfg.BrownoutEvery > 0 && c.cfg.BrownoutLen > 0 && c.cfg.BrownoutStall > 0
	if !probabilistic && !brownout {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	var stall time.Duration
	if brownout {
		cycle := int64(c.cfg.BrownoutEvery + c.cfg.BrownoutLen)
		pos := c.stallSeq % cycle
		c.stallSeq++
		if pos >= int64(c.cfg.BrownoutEvery) {
			c.brownoutStalls.Add(1)
			stall += c.cfg.BrownoutStall
		}
	}
	if probabilistic && c.rng.Float64() < c.cfg.StallProb {
		c.stalls.Add(1)
		stall += c.cfg.StallFor
	}
	return stall
}

// DrainFor implements Draining: it draws the slow-reader fault, charging
// extra client-side drain time that keeps the connection occupied.
func (c *ChaosOrigin) DrainFor(req *Request, resp *httpcache.Response) time.Duration {
	if c.cfg.SlowReadProb <= 0 || c.cfg.SlowReadFor <= 0 || len(resp.Body) == 0 {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.rng.Float64() >= c.cfg.SlowReadProb {
		return 0
	}
	c.slowReads.Add(1)
	return c.cfg.SlowReadFor
}

// RoundTrip implements Origin. Fault draws happen in request order under
// the lock, so a fixed seed and a fixed request sequence replay the exact
// same faults.
func (c *ChaosOrigin) RoundTrip(req *Request) *httpcache.Response {
	c.mu.Lock()
	c.requests.Add(1)
	pos := c.count
	c.count++
	if c.cfg.flapping() {
		cycle := int64(c.cfg.UpFor + c.cfg.DownFor)
		if pos%cycle >= int64(c.cfg.UpFor) {
			c.flapFailures.Add(1)
			c.mu.Unlock()
			return injected503()
		}
	}
	if c.cfg.FailProb > 0 && c.rng.Float64() < c.cfg.FailProb {
		c.failures.Add(1)
		c.mu.Unlock()
		return injected503()
	}
	// Draw the in-transit faults before releasing the lock so the rng
	// sequence depends only on request order, not on the inner origin.
	truncate := c.cfg.TruncateProb > 0 && c.rng.Float64() < c.cfg.TruncateProb
	corrupt := c.cfg.CorruptMapProb > 0 && c.rng.Float64() < c.cfg.CorruptMapProb
	burst := c.cfg.BurstEvery > 0 && c.cfg.BurstSize > 1 && pos%int64(c.cfg.BurstEvery) == 0
	c.mu.Unlock()

	if burst {
		// Concurrency spike: the inner origin sees BurstSize copies of
		// this request at once — real goroutine concurrency, so a gated
		// origin experiences genuine slot contention. Only the original's
		// response is delivered; the duplicates' are discarded.
		c.bursts.Add(1)
		extras := c.cfg.BurstSize - 1
		c.burstRequests.Add(int64(extras))
		var wg sync.WaitGroup
		wg.Add(extras)
		for i := 0; i < extras; i++ {
			go func() {
				defer wg.Done()
				dup := *req
				c.inner.RoundTrip(&dup)
			}()
		}
		defer wg.Wait()
	}

	resp := c.inner.RoundTrip(req)

	if truncate && resp.StatusCode == http.StatusOK && len(resp.Body) > 1 {
		resp = ownHeader(resp)
		// The body is shared with the origin's stores; the full slice
		// expression makes any later append copy instead of writing over
		// the half that was cut off.
		n := len(resp.Body) / 2
		resp.Body = resp.Body[:n:n]
		resp.Truncated = true
		c.truncations.Add(1)
	}
	if corrupt {
		if v := resp.Header.Get(etagConfigHeader); v != "" {
			if !resp.Truncated { // a truncated response already owns its header
				resp = ownHeader(resp)
			}
			resp.Header.Set(etagConfigHeader, v[:len(v)/2])
			c.corruptedMaps.Add(1)
		}
	}
	return resp
}

// ownHeader returns a copy of resp whose header may be edited without
// reaching the inner origin's; the body stays shared.
func ownHeader(resp *httpcache.Response) *httpcache.Response {
	out := *resp
	out.Header = resp.Header.Clone()
	return &out
}

// injected503 builds the uncacheable error response ChaosOrigin answers
// with when it fails a request outright.
func injected503() *httpcache.Response {
	h := make(http.Header)
	h.Set("Content-Type", "text/plain")
	h.Set("Cache-Control", "no-store")
	return &httpcache.Response{
		StatusCode: http.StatusServiceUnavailable,
		Header:     h,
		Body:       []byte("injected failure"),
	}
}
