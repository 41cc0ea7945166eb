// Package cachestore is the one cache core every bounded cache in this
// repository builds on: a sharded, byte-budgeted key-value store, generic
// over the value type, with a lock-free read path, singleflight loading and
// atomic hit/miss/eviction counters.
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
// A fully-warm Get touches no mutex. Each shard keeps its key→entry index
// in a read-mostly concurrent map (sync.Map) that readers load from
// lock-free; an entry's value, key and size are immutable after
// publication, so a reader can never observe a torn entry — replacing a
// key's value publishes a whole new entry, and an entry removed while a
// reader holds it simply stays readable until the reader drops it (the
// garbage collector is the epoch reclamation: memory is reused only after
// the last reader lets go).
//
// An access is recorded lock-free too: a Get bumps the entry's frequency and
// eviction rank with atomic stores on the entry itself. The per-shard rank
// heap is maintained only by writers — under the shard mutex — and is
// allowed to go stale while a shard takes only reads. Victim selection
// revalidates lazily: a root whose live rank no longer matches its linked
// position is sifted to where it belongs (paying off the deferred
// promotions) and the peek repeats, so the entry finally chosen is exactly
// the globally smallest live rank. Ranks only grow — frequencies only rise
// and the inflation value only inflates — which is what makes "candidate's
// rank unchanged since linking" prove global minimality. Single-threaded
// eviction order is therefore exactly GDSF's order (the differential tests
// replay it against a naive reference); concurrent races can at worst pick
// a near-minimal victim.
//
// # One eviction order
//
// Every shard orders its entries in one min-heap on rank, and the store
// evicts the smallest root across shards — one O(shards) scan, no global
// lock. The rank is greedy-dual size-frequency (see policy.go), so the
// victim is the same whatever the shard count.
package cachestore

import (
	"fmt"
	"sync"
	"sync/atomic"

	"cachecatalyst/internal/telemetry"
)

// numShards is the number of mutex-protected segments keys hash across, a
// power of two. Writers to different shards do not contend; eviction order
// is the same whatever the count, and reads take no shard lock.
const numShards = 16

// Options configures a Store.
type Options[V any] struct {
	// MaxBytes bounds the sum of entry sizes as reported by SizeOf;
	// 0 means unbounded. The entry with the smallest GDSF rank (across
	// all shards) is evicted first.
	MaxBytes int64
	// SizeOf reports an entry's accounting size. Nil charges 1 per
	// entry, turning MaxBytes into a maximum entry count.
	SizeOf func(key string, v V) int64
	// Telemetry, when set together with Name, registers the store's
	// counters in the given registry as "<Name>.hits", "<Name>.misses",
	// "<Name>.puts", "<Name>.evictions", "<Name>.loads",
	// "<Name>.loads_shared" and "<Name>.victim_scans". The registry
	// indexes the store's own
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
	// VictimScans counts candidate entries examined while selecting
	// victims (one per non-empty shard peeked per selection pass).
	VictimScans int64
}

// node is one resident entry. key, val and size are immutable after the
// entry is published in its shard's index, which is what makes lock-free
// reads safe: replacing a key's value installs a fresh node. stamp is the
// entry's live eviction rank, updated by lock-free readers; linked is the
// rank the entry's heap position reflects, touched only under the shard
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
	// linked is the rank at which the entry was last positioned in its
	// shard's heap. Guarded by the shard mutex.
	linked uint64
	// freq counts this entry's accesses while resident (saturating;
	// racing increments may be lost, which the rank tolerates).
	freq atomic.Uint32
	// hidx is the entry's index in its shard's heap; -1 once removed.
	hidx int32
}

type shard[V any] struct {
	mu sync.Mutex
	// index maps key → *node[V]. Readers Load lock-free; all mutation
	// happens under mu, so writers see a consistent membership.
	index sync.Map
	count atomic.Int64 // resident entries; mutated under mu
	heap  []*node[V]   // min-heap on linked rank (see policy.go)
}

// Store is a sharded store with lock-free reads. The zero value is not
// usable; construct with New. A Store is safe for concurrent use.
type Store[V any] struct {
	shards   []shard[V]
	mask     uint64
	sizeOf   func(string, V) int64
	maxBytes int64 // 0 = unbounded

	bytes atomic.Int64
	// inflation is GDSF's L as float64 bits: raised to each victim's rank,
	// never lowered (see policy.go).
	inflation atomic.Uint64

	hits, misses, puts, evictions telemetry.Counter
	loads, loadsShared            telemetry.Counter
	victimScans                   telemetry.Counter

	flight flightGroup[V]
}

// New returns an empty store.
func New[V any](opts Options[V]) *Store[V] {
	s := &Store[V]{
		shards:   make([]shard[V], numShards),
		mask:     numShards - 1,
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
		opts.Telemetry.RegisterCounter(opts.Name+".victim_scans", &s.victimScans)
	}
	return s
}

// hashKey is inline FNV-1a; good spread on URL-shaped keys, no allocation.
func hashKey(key string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	return h
}

func (s *Store[V]) shard(key string) *shard[V] {
	return &s.shards[hashKey(key)&s.mask]
}

// Get returns the value for key, promoting it in the eviction order and
// counting the hit or miss. A warm hit acquires no mutex: the lookup reads
// the shard's concurrent index and the promotion is atomic stores on the
// entry, deferred into the shard's heap until the next write needs it (see
// the package comment's warm-path fast lane).
func (s *Store[V]) Get(key string) (V, bool) {
	e, ok := s.shard(key).index.Load(key)
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
	e, ok := s.shard(key).index.Load(key)
	if !ok {
		var zero V
		return zero, false
	}
	return e.(*node[V]).val, true
}

// Put stores v under key, replacing any previous entry, then enforces the
// byte budget.
func (s *Store[V]) Put(key string, v V) {
	size := s.sizeOf(key, v)
	sh := s.shard(key)
	sh.mu.Lock()
	var old *node[V]
	if e, ok := sh.index.Load(key); ok {
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
		sh.heapRemove(old)
	} else {
		s.bytes.Add(size)
		sh.count.Add(1)
	}
	sh.heapPush(n)
	sh.index.Store(key, n)
	sh.mu.Unlock()
	s.puts.Add(1)
	s.enforceBudget()
}

// enforceBudget evicts globally-smallest-rank entries until the byte budget
// is respected. Concurrent evictors can race on the choice of victim; each
// still evicts some near-minimal entry and the loop re-checks the budget, so
// the store converges. Single-threaded use is exactly GDSF's order.
func (s *Store[V]) enforceBudget() {
	if s.maxBytes <= 0 {
		return
	}
	for s.bytes.Load() > s.maxBytes && s.evictOne() {
		s.evictions.Add(1)
	}
}

// victim returns the shard's eviction candidate — the heap root — with its
// live rank paid off. A root whose live stamp ran ahead of its linked
// position is sifted down and the peek repeats, so the returned entry's
// position is current — which (ranks only grow) proves it is the shard's
// true minimum. The iteration bound only matters under concurrent promotion
// storms, where a near-minimal victim is acceptable; single-threaded the
// loop settles exactly. Requires the shard lock.
func (s *Store[V]) victim(sh *shard[V]) *node[V] {
	limit := int(sh.count.Load()) + 8
	for i := 0; ; i++ {
		if len(sh.heap) == 0 {
			return nil
		}
		r := sh.heap[0]
		live := r.stamp.Load()
		if live == r.linked || i >= limit {
			return r
		}
		r.linked = live
		sh.heapFix(r)
	}
}

// findVictimShard scans every shard for the globally smallest rank,
// counting the candidates examined. Shards are locked one at a time —
// never nested — so selection cannot deadlock with Put or other evictors.
func (s *Store[V]) findVictimShard() int {
	best := -1
	var bestStamp uint64
	scanned := int64(0)
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		if n := s.victim(sh); n != nil {
			scanned++
			if best < 0 || n.linked < bestStamp {
				best, bestStamp = i, n.linked
			}
		}
		sh.mu.Unlock()
	}
	if scanned > 0 {
		s.victimScans.Add(scanned)
	}
	return best
}

// evictOne removes the entry with the smallest rank, raising L to that rank
// (GDSF aging), and reports whether it found one.
func (s *Store[V]) evictOne() bool {
	best := s.findVictimShard()
	if best < 0 {
		return false
	}
	sh := &s.shards[best]
	sh.mu.Lock()
	n := s.victim(sh)
	if n == nil {
		// A concurrent evictor drained this shard between the scan and
		// the re-lock; it is making progress, so stop here.
		sh.mu.Unlock()
		return false
	}
	s.remove(sh, n)
	sh.mu.Unlock()
	for l := s.inflation.Load(); n.linked > l; l = s.inflation.Load() {
		if s.inflation.CompareAndSwap(l, n.linked) {
			break
		}
	}
	return true
}

// remove unhooks a resident entry from its shard's bookkeeping. Requires
// the shard lock.
func (s *Store[V]) remove(sh *shard[V], n *node[V]) {
	sh.heapRemove(n)
	sh.index.Delete(n.key)
	sh.count.Add(-1)
	s.bytes.Add(-n.size)
}

// MaxBytes returns the byte budget (0 = unbounded).
func (s *Store[V]) MaxBytes() int64 { return s.maxBytes }

// Len returns the number of stored entries.
func (s *Store[V]) Len() int {
	total := int64(0)
	for i := range s.shards {
		total += s.shards[i].count.Load()
	}
	return int(total)
}

// Bytes returns the total accounting size of stored entries.
func (s *Store[V]) Bytes() int64 { return s.bytes.Load() }

// Keys returns the stored keys, in no particular order.
func (s *Store[V]) Keys() []string {
	keys := make([]string, 0, 64)
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		sh.index.Range(func(k, _ any) bool {
			keys = append(keys, k.(string))
			return true
		})
		sh.mu.Unlock()
	}
	return keys
}

// Audit cross-checks the store's bookkeeping invariants: every shard's heap
// and index must agree entry for entry (each node at the heap index it
// claims), the ordering invariant must hold (the heap property on linked
// ranks; no live rank lags its linked position), and the charged sizes must
// sum to Bytes(). It returns the first inconsistency found, or
// nil. Audit is meant for tests — the byte total is only meaningful when no
// concurrent mutation is in flight.
func (s *Store[V]) Audit() error {
	var total int64
	for i := range s.shards {
		n, err := s.auditShard(i)
		if err != nil {
			return err
		}
		total += n
	}
	if got := s.bytes.Load(); got != total {
		return fmt.Errorf("cachestore: byte counter %d, entries sum to %d", got, total)
	}
	return nil
}

// auditShard checks one shard's invariants and returns its charged bytes.
func (s *Store[V]) auditShard(i int) (int64, error) {
	sh := &s.shards[i]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	indexed := 0
	sh.index.Range(func(_, _ any) bool { indexed++; return true })
	if c := int(sh.count.Load()); c != indexed {
		return 0, fmt.Errorf("cachestore: shard %d counts %d entries, index holds %d", i, c, indexed)
	}
	if len(sh.heap) != indexed {
		return 0, fmt.Errorf("cachestore: shard %d heap holds %d entries, index holds %d", i, len(sh.heap), indexed)
	}
	var total int64
	for j, n := range sh.heap {
		if int(n.hidx) != j {
			return 0, fmt.Errorf("cachestore: shard %d heap node %q claims index %d, is at %d", i, n.key, n.hidx, j)
		}
		if j > 0 && sh.heap[(j-1)/2].linked > n.linked {
			return 0, fmt.Errorf("cachestore: shard %d heap property violated at %q", i, n.key)
		}
		if e, ok := sh.index.Load(n.key); !ok || e.(*node[V]) != n {
			return 0, fmt.Errorf("cachestore: shard %d heap node %q not in index", i, n.key)
		}
		if live := n.stamp.Load(); live < n.linked {
			return 0, fmt.Errorf("cachestore: entry %q live rank %d lags its linked rank %d", n.key, live, n.linked)
		}
		if size := s.sizeOf(n.key, n.val); size != n.size {
			return 0, fmt.Errorf("cachestore: entry %q charged %d bytes, SizeOf says %d", n.key, n.size, size)
		}
		total += n.size
	}
	return total, nil
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
		VictimScans: s.victimScans.Load(),
	}
}
