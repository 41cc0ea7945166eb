// The eviction order.
//
// A store evicts the resident entry with the globally smallest rank, and the
// rank is greedy-dual size-frequency (Cherkasova's GDSF with unit cost):
// rank = L + frequency/size, where L is a store-global inflation value raised
// to each victim's rank on eviction. Small, frequently-hit objects earn high
// ranks; large cold ones are evicted first; L ages out formerly popular
// entries that stop being touched. Web objects span four-plus orders of
// magnitude in size, exactly the regime where pure recency — and even
// Belady's fixed-size OPT — is suboptimal. DESIGN.md §10 records the
// measurements that retired LRU and an admission filter.
package cachestore

import "math"

// rank returns an entry's rank after its freq-th access. Ranks are float64
// bit patterns: IEEE 754 non-negative floats order identically to their bit
// patterns, so every rank comparison stays a plain integer compare. Safe to
// call without a shard lock.
func (s *Store[V]) rank(freq uint32, size int64) uint64 {
	if size < 1 {
		size = 1
	}
	return math.Float64bits(math.Float64frombits(s.inflation.Load()) + float64(freq)/float64(size))
}

// Rank-heap bookkeeping. Each shard keeps its entries in a binary min-heap
// on node.linked (the rank as of the entry's last write-side positioning —
// lock-free reads store fresher ranks into node.stamp, and victim selection
// pays the difference off before trusting the root), so the shard's cheapest
// validated victim is heap[0] and the global victim is the smallest root
// across shards, with O(log n) maintenance per eviction. All methods require
// the shard lock.

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
