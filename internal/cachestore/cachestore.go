// Package cachestore is the one cache core every bounded cache in this
// repository builds on: a byte-budgeted key-value store, generic over the
// value type, with a lock-free read path, singleflight loading and atomic
// hit/miss/eviction counters.
//
// The paper's server-side argument is that redundant work — like redundant
// round trips — is pure waste. The middleware's probe, render and stale
// caches and the cluster's announcement store all store through a Store.
// The client caches (the browser's HTTP cache and Service-Worker storage)
// do not: they are unbounded and never evict, so a budget, a rank heap and
// a lock-free index would be paid for on every store and lookup and used
// by nothing. Each is a plain map under one mutex in its own package.
//
// A store's byte budget is fixed when it is built, and a cache that needs
// its own budget — a tenant's render cache, say — is its own Store: there
// are no sub-stores, and nothing resizes or empties a store while it
// serves.
//
// # Warm-path fast lane
//
// A fully-warm Get touches no mutex. The store keeps its key→entry index
// in a read-mostly concurrent map (sync.Map) that readers load from
// lock-free; an entry's value, key and size are immutable after
// publication, so a reader can never observe a torn entry — replacing a
// key's value publishes a whole new entry, and an entry removed while a
// reader holds it simply stays readable until the reader drops it (the
// garbage collector is the epoch reclamation: memory is reused only after
// the last reader lets go).
//
// An access is recorded lock-free too: a Get bumps the entry's frequency and
// eviction rank with atomic stores on the entry itself. The rank heap is
// maintained only by writers — under the store's one mutex — and is
// allowed to go stale while the store takes only reads. Victim selection
// revalidates lazily: a root whose live rank no longer matches its linked
// position is sifted to where it belongs (paying off the deferred
// promotions) and the peek repeats, so the entry finally chosen is exactly
// the smallest live rank. Ranks only grow — frequencies only rise and the
// inflation value only inflates — which is what makes "candidate's rank
// unchanged since linking" prove minimality. Single-threaded eviction order
// is therefore exactly GDSF's order (the differential tests replay it
// against a naive reference); a Get racing the selection can at worst
// leave a near-minimal victim.
//
// # One eviction order
//
// The store orders its entries in one min-heap on rank and evicts the root.
// The rank is greedy-dual size-frequency (see policy.go).
package cachestore

import (
	"fmt"
	"sync"
	"sync/atomic"

	"cachecatalyst/internal/telemetry"
)

// Options configures a Store.
type Options[V any] struct {
	// MaxBytes bounds the sum of entry sizes as reported by SizeOf;
	// 0 means unbounded. The entry with the smallest GDSF rank is
	// evicted first.
	MaxBytes int64
	// SizeOf reports an entry's accounting size. Nil charges 1 per
	// entry, turning MaxBytes into a maximum entry count.
	SizeOf func(key string, v V) int64
	// Telemetry, when set together with Name, registers the store's
	// counters in the given registry as "<Name>.hits", "<Name>.misses",
	// "<Name>.puts", "<Name>.evictions", "<Name>.loads" and
	// "<Name>.loads_shared". The registry indexes the store's own
	// counters — Counters() and the registry snapshot read the same
	// storage.
	Telemetry *telemetry.Registry
	// Name qualifies the store's instruments in Telemetry.
	Name string
}

// Counters is a snapshot of a store's atomic counters.
type Counters struct {
	// Hits and Misses count Get outcomes.
	Hits, Misses int64
	// Puts counts insertions and replacements; Evictions counts entries
	// removed to respect the byte budget.
	Puts, Evictions int64
	// Loads counts loader executions by Do; LoadsShared counts
	// callers that piggybacked on another goroutine's in-flight load
	// instead of running their own.
	Loads, LoadsShared int64
}

// node is one resident entry. key, val and size are immutable after the
// entry is published in the index, which is what makes lock-free reads
// safe: replacing a key's value installs a fresh node. stamp is the
// entry's live eviction rank, updated by lock-free readers; linked is the
// rank the entry's heap position reflects, touched only under the store's
// mutex. stamp only ever grows, and stamp == linked means the position is
// current.
type node[V any] struct {
	key  string
	val  V
	size int64
	// stamp is the entry's live eviction rank — the smallest rank in the
	// store is evicted first — as of its last access. Written lock-free by
	// Get.
	stamp atomic.Uint64
	// linked is the rank at which the entry was last positioned in the
	// heap. Guarded by the store's mutex.
	linked uint64
	// freq counts this entry's accesses while resident (saturating;
	// racing increments may be lost, which the rank tolerates).
	freq atomic.Uint32
	// hidx is the entry's index in the heap; -1 once removed.
	hidx int32
}

// Store is a byte-budgeted store with lock-free reads. The zero value is
// not usable; construct with New. A Store is safe for concurrent use.
type Store[V any] struct {
	// index maps key → *node[V]. Readers Load lock-free; all mutation
	// happens under mu, so writers see a consistent membership.
	index sync.Map
	mu    sync.Mutex
	heap  []*node[V] // min-heap on linked rank (see policy.go); guarded by mu

	sizeOf   func(string, V) int64
	maxBytes int64 // 0 = unbounded

	// bytes is written under mu and read lock-free by Bytes.
	bytes atomic.Int64
	// inflation is GDSF's L as float64 bits: raised to each victim's rank,
	// never lowered (see policy.go). Written under mu; Get reads it
	// lock-free to rank a hit.
	inflation atomic.Uint64

	hits, misses, puts, evictions telemetry.Counter
	loads, loadsShared            telemetry.Counter

	flight flightGroup[V]
}

// New returns an empty store.
func New[V any](opts Options[V]) *Store[V] {
	s := &Store[V]{
		sizeOf:   opts.SizeOf,
		maxBytes: opts.MaxBytes,
	}
	if s.sizeOf == nil {
		s.sizeOf = func(string, V) int64 { return 1 }
	}
	s.flight.calls = make(map[string]*flightCall[V])
	if opts.Telemetry != nil && opts.Name != "" {
		opts.Telemetry.RegisterCounter(opts.Name+".hits", &s.hits)
		opts.Telemetry.RegisterCounter(opts.Name+".misses", &s.misses)
		opts.Telemetry.RegisterCounter(opts.Name+".puts", &s.puts)
		opts.Telemetry.RegisterCounter(opts.Name+".evictions", &s.evictions)
		opts.Telemetry.RegisterCounter(opts.Name+".loads", &s.loads)
		opts.Telemetry.RegisterCounter(opts.Name+".loads_shared", &s.loadsShared)
	}
	return s
}

// Get returns the value for key, promoting it in the eviction order and
// counting the hit or miss. A warm hit acquires no mutex: the lookup reads
// the concurrent index and the promotion is atomic stores on the entry,
// deferred into the heap until the next eviction needs it (see the package
// comment's warm-path fast lane).
func (s *Store[V]) Get(key string) (V, bool) {
	e, ok := s.index.Load(key)
	if !ok {
		s.misses.Add(1)
		var zero V
		return zero, false
	}
	n := e.(*node[V])
	s.promote(n)
	s.hits.Add(1)
	return n.val, true
}

// promote records an access on a resident entry with atomics only: it bumps
// the (saturating, lossy under races) frequency and stores the recomputed
// rank. The entry's heap position is intentionally left stale — victim
// selection revalidates it before trusting it.
func (s *Store[V]) promote(n *node[V]) {
	f := n.freq.Load()
	if f != ^uint32(0) {
		f++
		n.freq.Store(f)
	}
	n.stamp.Store(s.rank(f, n.size))
}

// Peek returns the value for key without touching eviction order or
// counters. Lock-free.
func (s *Store[V]) Peek(key string) (V, bool) {
	e, ok := s.index.Load(key)
	if !ok {
		var zero V
		return zero, false
	}
	return e.(*node[V]).val, true
}

// Put stores v under key, replacing any previous entry, then evicts until
// the byte budget holds.
func (s *Store[V]) Put(key string, v V) {
	size := s.sizeOf(key, v)
	s.mu.Lock()
	var old *node[V]
	if e, ok := s.index.Load(key); ok {
		old = e.(*node[V])
	}
	// Replacement installs a fresh node so concurrent lock-free readers
	// never observe a half-updated entry; the rank it starts with is the
	// same one a hit would have promoted the old entry to.
	n := &node[V]{key: key, val: v, size: size}
	freq := uint32(1)
	if old != nil {
		if f := old.freq.Load(); f == ^uint32(0) {
			freq = f
		} else {
			freq = f + 1
		}
	}
	n.freq.Store(freq)
	rank := s.rank(freq, size)
	n.stamp.Store(rank)
	n.linked = rank
	if old != nil {
		s.bytes.Add(size - old.size)
		s.heapRemove(old)
	} else {
		s.bytes.Add(size)
	}
	s.heapPush(n)
	s.index.Store(key, n)
	s.evict()
	s.mu.Unlock()
	s.puts.Add(1)
}

// evict removes smallest-rank entries until the byte budget holds, raising
// L to each victim's rank (GDSF aging). The victim is the heap root once
// its live rank is paid off: a root whose stamp ran ahead of its linked
// position is sifted down and the peek repeats, so the root finally taken
// is current, which (ranks only grow) proves it the store's minimum. The
// bound on re-sifts only matters while concurrent Gets promote faster than
// the loop settles, where a near-minimal victim is acceptable;
// single-threaded the loop is exact. Requires mu.
func (s *Store[V]) evict() {
	for sifts := 0; s.maxBytes > 0 && s.bytes.Load() > s.maxBytes && len(s.heap) > 0; {
		r := s.heap[0]
		if live := r.stamp.Load(); live != r.linked && sifts < len(s.heap)+8 {
			r.linked = live
			s.heapFix(r)
			sifts++
			continue
		}
		s.heapRemove(r)
		s.index.Delete(r.key)
		s.bytes.Add(-r.size)
		if r.linked > s.inflation.Load() {
			s.inflation.Store(r.linked)
		}
		s.evictions.Add(1)
		sifts = 0
	}
}

// MaxBytes returns the byte budget (0 = unbounded).
func (s *Store[V]) MaxBytes() int64 { return s.maxBytes }

// Len returns the number of stored entries.
func (s *Store[V]) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.heap)
}

// Bytes returns the total accounting size of stored entries.
func (s *Store[V]) Bytes() int64 { return s.bytes.Load() }

// Keys returns the stored keys, in no particular order.
func (s *Store[V]) Keys() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	keys := make([]string, len(s.heap))
	for i, n := range s.heap {
		keys[i] = n.key
	}
	return keys
}

// Audit cross-checks the store's bookkeeping invariants: the heap and the
// index must agree entry for entry (each node at the heap index it
// claims), the ordering invariant must hold (the heap property on linked
// ranks; no live rank lags its linked position), and the charged sizes must
// sum to Bytes(). It returns the first inconsistency found, or
// nil. Audit is meant for tests — the byte total is only meaningful when no
// concurrent mutation is in flight.
func (s *Store[V]) Audit() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	indexed := 0
	s.index.Range(func(_, _ any) bool { indexed++; return true })
	if len(s.heap) != indexed {
		return fmt.Errorf("cachestore: heap holds %d entries, index holds %d", len(s.heap), indexed)
	}
	var total int64
	for j, n := range s.heap {
		if int(n.hidx) != j {
			return fmt.Errorf("cachestore: heap node %q claims index %d, is at %d", n.key, n.hidx, j)
		}
		if j > 0 && s.heap[(j-1)/2].linked > n.linked {
			return fmt.Errorf("cachestore: heap property violated at %q", n.key)
		}
		if e, ok := s.index.Load(n.key); !ok || e.(*node[V]) != n {
			return fmt.Errorf("cachestore: heap node %q not in index", n.key)
		}
		if live := n.stamp.Load(); live < n.linked {
			return fmt.Errorf("cachestore: entry %q live rank %d lags its linked rank %d", n.key, live, n.linked)
		}
		if size := s.sizeOf(n.key, n.val); size != n.size {
			return fmt.Errorf("cachestore: entry %q charged %d bytes, SizeOf says %d", n.key, n.size, size)
		}
		total += n.size
	}
	if got := s.bytes.Load(); got != total {
		return fmt.Errorf("cachestore: byte counter %d, entries sum to %d", got, total)
	}
	return nil
}

// Counters returns a snapshot of the store's counters.
func (s *Store[V]) Counters() Counters {
	return Counters{
		Hits:        s.hits.Load(),
		Misses:      s.misses.Load(),
		Puts:        s.puts.Load(),
		Evictions:   s.evictions.Load(),
		Loads:       s.loads.Load(),
		LoadsShared: s.loadsShared.Load(),
	}
}
