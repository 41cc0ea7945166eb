// Eviction policies.
//
// A policy answers one question — "which resident entry should leave when
// the budget is exceeded?" — by assigning every entry a rank; the store
// keeps each shard's entries in a min-heap on that rank and always evicts
// the globally smallest.
//
// Web objects span four-plus orders of magnitude in size, exactly the
// regime where pure recency (LRU) — and even Belady's fixed-size OPT — is
// suboptimal, so GDSF folds size and frequency into the rank. There is no
// admission axis: DESIGN.md §10 records what a filter in front of these two
// measured against the offline bound, and why that did not pay for a sketch
// write on every hit.
package cachestore

import (
	"fmt"
	"math"
	"sync/atomic"
)

// An EvictionPolicy chooses which resident entry a Store evicts first.
// Implementations are provided by this package (LRU, GDSF); the zero
// Options value selects LRU. The interface is sealed: per-entry rank
// bookkeeping is internal to the store.
type EvictionPolicy interface {
	// Name identifies the policy in flags and telemetry ("lru", "gdsf").
	Name() string
	// newRanker returns the store-wide ranking state. touch is the store's
	// monotone access counter, for a policy that ranks by recency.
	newRanker(touch *atomic.Uint64) ranker
}

// ranker computes per-entry eviction ranks; the store evicts the entry
// with the globally smallest rank. Methods are called with a shard lock
// held, possibly from different shards concurrently, so shared state must
// be atomic.
type ranker interface {
	// onAccess returns the entry's rank after its freq-th access. size is
	// the entry's charged size.
	onAccess(freq uint32, size int64) uint64
	// onEvict observes the evicted victim's rank (GDSF aging: the global
	// inflation value L rises to the evicted priority).
	onEvict(rank uint64)
}

// lruPolicy is the default: exact global least-recently-used order.
type lruPolicy struct{}

// LRU returns the default exact-global-LRU eviction policy. A nil
// Options.Policy.Eviction selects the same behaviour.
func LRU() EvictionPolicy { return lruPolicy{} }

func (lruPolicy) Name() string                          { return "lru" }
func (lruPolicy) newRanker(touch *atomic.Uint64) ranker { return lruRanker{touch} }

// lruRanker ranks by the store-wide monotone touch stamp. Stamps are unique,
// so the heap's order is recency order with no ties to break, and each is
// larger than every stamp before it, so a new entry's push never sifts.
type lruRanker struct {
	touch *atomic.Uint64
}

func (l lruRanker) onAccess(uint32, int64) uint64 { return l.touch.Add(1) }
func (lruRanker) onEvict(uint64)                  {}

// gdsfPolicy is greedy-dual size-frequency: rank = L + frequency/size,
// where L is a store-global inflation value raised to each victim's rank
// on eviction. Small, frequently-hit objects earn high ranks; large cold
// ones are evicted first; L ages out formerly popular entries that stop
// being touched.
type gdsfPolicy struct{}

// GDSF returns the greedy-dual size-frequency eviction policy
// (Cherkasova's GDSF with unit cost, optimizing object hit ratio while
// strongly preferring to spend bytes on small popular objects).
func GDSF() EvictionPolicy { return gdsfPolicy{} }

func (gdsfPolicy) Name() string                    { return "gdsf" }
func (gdsfPolicy) newRanker(*atomic.Uint64) ranker { return &gdsfRanker{} }

// gdsfRanker holds L as float64 bits. Ranks are float64 bit patterns:
// IEEE 754 non-negative floats order identically to their bit patterns, so
// the store's uint64 rank comparisons stay a plain integer compare.
type gdsfRanker struct {
	l atomic.Uint64 // math.Float64bits(L); L only ever rises
}

func (g *gdsfRanker) onAccess(freq uint32, size int64) uint64 {
	if size < 1 {
		size = 1
	}
	p := math.Float64frombits(g.l.Load()) + float64(freq)/float64(size)
	return math.Float64bits(p)
}

func (g *gdsfRanker) onEvict(rank uint64) {
	for {
		cur := g.l.Load()
		if rank <= cur || g.l.CompareAndSwap(cur, rank) {
			return
		}
	}
}

// Policy selects a store's eviction policy. The zero value is the store
// default, exact global LRU.
type Policy struct {
	// Eviction selects the victim ordering; nil means exact global LRU.
	Eviction EvictionPolicy
}

// eviction resolves the nil default.
func (p Policy) eviction() EvictionPolicy {
	if p.Eviction == nil {
		return LRU()
	}
	return p.Eviction
}

// Name returns the policy's flag spelling: "lru" or "gdsf".
func (p Policy) Name() string { return p.eviction().Name() }

// PolicyNames lists the spellings ParsePolicy accepts, for flag usage
// strings.
func PolicyNames() []string { return []string{"lru", "gdsf"} }

// ParsePolicy resolves a policy by name: "lru" (or empty) or "gdsf". The
// retired admission spellings are refused by name rather than read as LRU,
// so a configuration that still asks for them fails at startup.
func ParsePolicy(name string) (Policy, error) {
	switch name {
	case "", "lru":
		return Policy{}, nil
	case "gdsf":
		return Policy{Eviction: GDSF()}, nil
	case "tinylfu", "tinylfu-lru", "tinylfu-gdsf":
		return Policy{}, fmt.Errorf("cachestore: policy %q was removed with the admission filter; use lru or gdsf", name)
	}
	return Policy{}, fmt.Errorf("cachestore: unknown policy %q (have lru, gdsf)", name)
}

// Rank-heap bookkeeping. Each shard keeps its entries in a binary min-heap
// on node.linked (the policy rank as of the entry's last write-side
// positioning — lock-free reads store fresher ranks into node.stamp, and
// victim selection pays the difference off before trusting the root), so
// the shard's cheapest validated victim is heap[0] and the global victim is
// the smallest root across shards, with O(log n) maintenance per eviction.
// All methods require the shard lock.

func (sh *shard[V]) heapPush(n *node[V]) {
	n.hidx = int32(len(sh.heap))
	sh.heap = append(sh.heap, n)
	sh.heapUp(int(n.hidx))
}

func (sh *shard[V]) heapRemove(n *node[V]) {
	i := int(n.hidx)
	last := len(sh.heap) - 1
	if i != last {
		sh.heap[i] = sh.heap[last]
		sh.heap[i].hidx = int32(i)
	}
	sh.heap[last] = nil
	sh.heap = sh.heap[:last]
	if i != last {
		sh.heapFix(sh.heap[i])
	}
	n.hidx = -1
}

func (sh *shard[V]) heapFix(n *node[V]) {
	i := int(n.hidx)
	if !sh.heapDown(i) {
		sh.heapUp(i)
	}
}

func (sh *shard[V]) heapUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if sh.heap[parent].linked <= sh.heap[i].linked {
			break
		}
		sh.heapSwap(i, parent)
		i = parent
	}
}

// heapDown reports whether the node moved.
func (sh *shard[V]) heapDown(i int) bool {
	moved := false
	for {
		left := 2*i + 1
		if left >= len(sh.heap) {
			return moved
		}
		least := left
		if right := left + 1; right < len(sh.heap) && sh.heap[right].linked < sh.heap[left].linked {
			least = right
		}
		if sh.heap[i].linked <= sh.heap[least].linked {
			return moved
		}
		sh.heapSwap(i, least)
		i = least
		moved = true
	}
}

func (sh *shard[V]) heapSwap(i, j int) {
	sh.heap[i], sh.heap[j] = sh.heap[j], sh.heap[i]
	sh.heap[i].hidx = int32(i)
	sh.heap[j].hidx = int32(j)
}
