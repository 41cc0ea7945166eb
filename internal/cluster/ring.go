// Package cluster turns independent catalystd instances into a cooperating
// edge tier. Two mechanisms, deliberately small:
//
//   - Ring: a consistent-hash ring over instance IDs. A front tier (or the
//     harness's cell router) uses it to send each page to a preferred
//     instance, concentrating a page's render cache, probe results and
//     stale copy on few nodes instead of diluting them across all. When an
//     instance dies, only the keys it owned move (the consistent-hashing
//     guarantee), so the survivors' caches stay warm.
//
//   - Exchange: peer gossip of hot X-Etag-Config encodings. An instance
//     that rendered a page and paid the probe fan-out publishes the
//     (tenant, page, validator) → encoding binding; a peer asked to serve
//     the same entity — failover traffic after a node death, or a router
//     that hashes imperfectly — adopts the published encoding instead of
//     re-probing its own upstream. The map rides the exchange with its
//     expiry, so a peer never trusts it longer than the instance that
//     built it would have.
//
// Neither mechanism has a coordinator: the ring is deterministic from the
// member list, and the exchange is best-effort fan-out — a lost gossip
// message costs one redundant probe fan-out, never correctness.
package cluster

import (
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
)

// DefaultVnodes is the virtual-node count per member: enough that key
// ownership spreads within a few percent of even for small clusters,
// small enough that rebuilding the ring on membership change is trivial.
const DefaultVnodes = 128

// Ring is a consistent-hash ring over instance IDs. Safe for concurrent
// use; membership changes rebuild the point list under a write lock while
// lookups proceed under read locks.
type Ring struct {
	vnodes int

	mu      sync.RWMutex
	members map[string]bool
	points  []ringPoint // sorted by hash
}

type ringPoint struct {
	hash uint64
	id   string
}

// NewRing builds a ring with DefaultVnodes virtual nodes per member.
func NewRing(members ...string) *Ring {
	r := &Ring{vnodes: DefaultVnodes, members: make(map[string]bool)}
	for _, m := range members {
		r.members[m] = true
	}
	r.rebuild()
	return r
}

// Add joins an instance to the ring. Adding an existing member is a no-op.
func (r *Ring) Add(id string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.members[id] {
		return
	}
	r.members[id] = true
	r.rebuild()
}

// Remove drops an instance from the ring — the kill-one-node path. Only
// the removed instance's keys change owner.
func (r *Ring) Remove(id string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.members[id] {
		return
	}
	delete(r.members, id)
	r.rebuild()
}

// Len returns the member count.
func (r *Ring) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.members)
}

// Owner returns the instance that owns key, or "" on an empty ring.
func (r *Ring) Owner(key string) string {
	owners := r.OwnerN(key, 1)
	if len(owners) == 0 {
		return ""
	}
	return owners[0]
}

// OwnerN returns up to n distinct instances for key in preference order:
// the owner first, then the successors a client fails over to when the
// owner is down.
func (r *Ring) OwnerN(key string, n int) []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.points) == 0 || n <= 0 {
		return nil
	}
	if n > len(r.members) {
		n = len(r.members)
	}
	h := hashString(key)
	// First point clockwise from the key's hash.
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	out := make([]string, 0, n)
	seen := make(map[string]bool, n)
	for range r.points {
		if i == len(r.points) {
			i = 0
		}
		id := r.points[i].id
		if !seen[id] {
			seen[id] = true
			out = append(out, id)
			if len(out) == n {
				break
			}
		}
		i++
	}
	return out
}

// rebuild recomputes the point list. Caller holds mu.
func (r *Ring) rebuild() {
	r.points = r.points[:0]
	for id := range r.members {
		for v := 0; v < r.vnodes; v++ {
			r.points = append(r.points, ringPoint{
				hash: hashString(fmt.Sprintf("%s#%d", id, v)),
				id:   id,
			})
		}
	}
	sort.Slice(r.points, func(i, j int) bool { return r.points[i].hash < r.points[j].hash })
}

// hashString is 64-bit FNV-1a followed by a full-avalanche finalizer:
// stdlib-only and stable across processes, so every instance computes the
// same ownership from the same member list. Bare FNV-1a is not enough
// here — keys differing only in their last bytes land within a narrow
// band (the final XOR touches 8 bits and one multiply cannot spread them
// across the ring), which assigns whole URL families to one owner. The
// murmur-style finalizer restores uniformity.
func hashString(s string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(s))
	x := h.Sum64()
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}
