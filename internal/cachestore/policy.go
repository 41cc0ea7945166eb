// The eviction order.
//
// A store evicts the resident entry with the smallest rank, and the
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
// call without the store's mutex.
func (s *Store[V]) rank(freq uint32, size int64) uint64 {
	if size < 1 {
		size = 1
	}
	return math.Float64bits(math.Float64frombits(s.inflation.Load()) + float64(freq)/float64(size))
}

// Rank-heap bookkeeping. The store keeps its entries in a binary min-heap
// on node.linked (the rank as of the entry's last write-side positioning —
// lock-free reads store fresher ranks into node.stamp, and eviction pays
// the difference off before trusting the root), so the validated victim is
// heap[0], with O(log n) maintenance per eviction. All methods require the
// store's mutex.

func (s *Store[V]) heapPush(n *node[V]) {
	n.hidx = int32(len(s.heap))
	s.heap = append(s.heap, n)
	s.heapUp(int(n.hidx))
}

func (s *Store[V]) heapRemove(n *node[V]) {
	i := int(n.hidx)
	last := len(s.heap) - 1
	if i != last {
		s.heap[i] = s.heap[last]
		s.heap[i].hidx = int32(i)
	}
	s.heap[last] = nil
	s.heap = s.heap[:last]
	if i != last {
		s.heapFix(s.heap[i])
	}
	n.hidx = -1
}

func (s *Store[V]) heapFix(n *node[V]) {
	i := int(n.hidx)
	if !s.heapDown(i) {
		s.heapUp(i)
	}
}

func (s *Store[V]) heapUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if s.heap[parent].linked <= s.heap[i].linked {
			break
		}
		s.heapSwap(i, parent)
		i = parent
	}
}

// heapDown reports whether the node moved.
func (s *Store[V]) heapDown(i int) bool {
	moved := false
	for {
		left := 2*i + 1
		if left >= len(s.heap) {
			return moved
		}
		least := left
		if right := left + 1; right < len(s.heap) && s.heap[right].linked < s.heap[left].linked {
			least = right
		}
		if s.heap[i].linked <= s.heap[least].linked {
			return moved
		}
		s.heapSwap(i, least)
		i = least
		moved = true
	}
}

func (s *Store[V]) heapSwap(i, j int) {
	s.heap[i], s.heap[j] = s.heap[j], s.heap[i]
	s.heap[i].hidx = int32(i)
	s.heap[j].hidx = int32(j)
}
