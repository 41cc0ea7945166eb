// Package telemetry is the repository's one observability core: a
// dependency-free metrics registry (named counters, gauges, and
// bounded-bucket latency histograms, all atomic and safe under concurrent
// serving) plus a lightweight per-request tracer carried through
// context.Context (see trace.go).
//
// The paper's evaluation is measurement-driven — PLT waterfalls across a
// cache-state × network grid — and explaining *why* a cell wins or loses
// needs per-layer attribution. Before this package every layer kept its own
// ad-hoc counter struct; they now all register their instruments here, so
// one snapshot covers the whole stack and /debug/catalystd can serve it.
//
// Instruments are zero-value-usable value types (like atomic.Int64), so a
// legacy counter struct can keep its exported fields and Snapshot() API
// while the registry holds pointers to the very same storage: the struct
// becomes a *view* over registry-backed instruments, with no second copy of
// the counts anywhere.
package telemetry

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing instrument. The zero value is ready
// to use; like atomic.Int64 it must not be copied after first use. Its
// method set deliberately matches how the repository's legacy counter
// structs used atomic.Int64 (Add/Load), so rebasing a struct onto Counter
// is a type change, not a call-site change.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Load returns the current value.
func (c *Counter) Load() int64 { return c.v.Load() }

// Gauge is a last-value instrument (queue depths, cache bytes). The zero
// value is ready to use; not copyable after first use.
type Gauge struct {
	v atomic.Int64
}

// Set records the current value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adjusts the value by n.
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// histBuckets is the number of exponential buckets a Histogram keeps: with
// firstBound = 1µs and ×2 growth the last finite bound is ~16.8s, wide
// enough for any serve/probe/load latency this repository measures, in a
// fixed 27-slot footprint.
const histBuckets = 25

// firstBound is the upper bound of the first histogram bucket, in
// nanoseconds.
const firstBound = int64(time.Microsecond)

// Histogram is a fixed-footprint latency histogram: observations (in
// nanoseconds) land in exponentially growing buckets, each an atomic
// counter, so recording is lock-free and safe under concurrent serving.
// The zero value is ready to use; not copyable after first use.
type Histogram struct {
	count  atomic.Int64
	sum    atomic.Int64
	bucket [histBuckets + 1]atomic.Int64 // +1 overflow bucket
}

// Observe records one value (nanoseconds for latencies).
func (h *Histogram) Observe(v int64) {
	h.count.Add(1)
	h.sum.Add(v)
	h.bucket[bucketIndex(v)].Add(1)
}

// bucketIndex maps a value to its bucket: bucket i covers
// (firstBound<<(i-1), firstBound<<i], bucket 0 covers (-inf, firstBound],
// and the final slot collects everything past the last finite bound.
func bucketIndex(v int64) int {
	bound := firstBound
	for i := 0; i < histBuckets; i++ {
		if v <= bound {
			return i
		}
		bound <<= 1
	}
	return histBuckets
}

// upperBound returns bucket i's inclusive upper bound in nanoseconds.
func upperBound(i int) int64 {
	if i >= histBuckets {
		return firstBound << (histBuckets - 1)
	}
	return firstBound << i
}

// HistogramSnapshot is a point-in-time summary of a Histogram. Quantiles
// are estimated by linear interpolation inside the bucket the rank falls
// into — the standard bounded-bucket estimate, accurate to one bucket
// width (a factor of two here).
type HistogramSnapshot struct {
	Count int64 `json:"count"`
	// SumNS is the total of all observations, in nanoseconds.
	SumNS int64 `json:"sumNs"`
	P50NS int64 `json:"p50Ns"`
	P95NS int64 `json:"p95Ns"`
	P99NS int64 `json:"p99Ns"`
}

// Snapshot summarizes the histogram. Under concurrent observation the
// bucket counts are read one by one, so the snapshot is approximate to
// whatever landed mid-read — fine for monitoring, which is its job.
func (h *Histogram) Snapshot() HistogramSnapshot {
	var counts [histBuckets + 1]int64
	var total int64
	for i := range h.bucket {
		counts[i] = h.bucket[i].Load()
		total += counts[i]
	}
	snap := HistogramSnapshot{Count: h.count.Load(), SumNS: h.sum.Load()}
	if total == 0 {
		return snap
	}
	snap.P50NS = quantile(counts[:], total, 0.50)
	snap.P95NS = quantile(counts[:], total, 0.95)
	snap.P99NS = quantile(counts[:], total, 0.99)
	return snap
}

// quantile estimates the q-quantile from bucket counts summing to total.
func quantile(counts []int64, total int64, q float64) int64 {
	rank := q * float64(total)
	var cum float64
	for i, c := range counts {
		if c == 0 {
			continue
		}
		next := cum + float64(c)
		if next >= rank {
			upper := upperBound(i)
			lower := int64(0)
			if i > 0 {
				lower = upperBound(i - 1)
			}
			frac := (rank - cum) / float64(c)
			return lower + int64(float64(upper-lower)*frac)
		}
		cum = next
	}
	return upperBound(histBuckets)
}

// Registry is a named collection of instruments. All methods are safe for
// concurrent use. Components either ask the registry to mint an instrument
// (Counter/Gauge/Histogram, get-or-create) or register instruments they
// already own (RegisterCounter and friends) — the latter is how the legacy
// counter structs became views: their fields are the storage, the registry
// just indexes them.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it if absent.
func (r *Registry) Counter(name string) *Counter {
	r.mu.RLock()
	c, ok := r.counters[name]
	r.mu.RUnlock()
	if ok {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counters[name]; ok {
		return c
	}
	c = &Counter{}
	r.counters[name] = c
	return c
}

// RegisterCounter indexes an existing counter under name, replacing any
// previous registration. Re-registration is deliberate: tests and
// ClearState-style resets recreate components freely, and the newest
// instrument is the live one.
func (r *Registry) RegisterCounter(name string, c *Counter) *Counter {
	r.mu.Lock()
	r.counters[name] = c
	r.mu.Unlock()
	return c
}

// Gauge returns the named gauge, creating it if absent.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.RLock()
	g, ok := r.gauges[name]
	r.mu.RUnlock()
	if ok {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.gauges[name]; ok {
		return g
	}
	g = &Gauge{}
	r.gauges[name] = g
	return g
}

// RegisterGauge indexes an existing gauge under name.
func (r *Registry) RegisterGauge(name string, g *Gauge) *Gauge {
	r.mu.Lock()
	r.gauges[name] = g
	r.mu.Unlock()
	return g
}

// Histogram returns the named histogram, creating it if absent.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.RLock()
	h, ok := r.hists[name]
	r.mu.RUnlock()
	if ok {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.hists[name]; ok {
		return h
	}
	h = &Histogram{}
	r.hists[name] = h
	return h
}

// Snapshot is the JSON form of a whole registry: every named instrument's
// current value, suitable for /debug/catalystd.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]int64             `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot captures every registered instrument.
func (r *Registry) Snapshot() Snapshot {
	r.mu.RLock()
	defer r.mu.RUnlock()
	snap := Snapshot{}
	if len(r.counters) > 0 {
		snap.Counters = make(map[string]int64, len(r.counters))
		for n, c := range r.counters {
			snap.Counters[n] = c.Load()
		}
	}
	if len(r.gauges) > 0 {
		snap.Gauges = make(map[string]int64, len(r.gauges))
		for n, g := range r.gauges {
			snap.Gauges[n] = g.Load()
		}
	}
	if len(r.hists) > 0 {
		snap.Histograms = make(map[string]HistogramSnapshot, len(r.hists))
		for n, h := range r.hists {
			snap.Histograms[n] = h.Snapshot()
		}
	}
	return snap
}

// Names returns every registered instrument name, sorted — handy for
// stable test assertions and debug listings.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.counters)+len(r.gauges)+len(r.hists))
	for n := range r.counters {
		names = append(names, n)
	}
	for n := range r.gauges {
		names = append(names, n)
	}
	for n := range r.hists {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
