package cachestore

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"cachecatalyst/internal/telemetry"
)

// refGDSF is the differential-test oracle: a deliberately naive GDSF over
// one slice — no shards, no heaps, no bit patterns. It never picks a victim
// itself: the store evicts, and evict checks that each victim held the
// smallest rank before removing it, so a tie may go either way.
type refGDSF struct {
	bytes   int64
	l       float64 // the inflation value; only ever raised
	entries []refEntry
}

type refEntry struct {
	key  string
	size int64
	freq uint32
	rank float64
}

func (r *refGDSF) find(key string) int {
	for i := range r.entries {
		if r.entries[i].key == key {
			return i
		}
	}
	return -1
}

func (r *refGDSF) touch(e *refEntry) {
	e.freq++
	e.rank = r.l + float64(e.freq)/float64(max(e.size, 1))
}

func (r *refGDSF) get(key string) bool {
	i := r.find(key)
	if i < 0 {
		return false
	}
	r.touch(&r.entries[i])
	return true
}

// put stores or replaces key; a replacement keeps counting the old entry's
// accesses.
func (r *refGDSF) put(key string, size int64) {
	i := r.find(key)
	if i < 0 {
		r.entries = append(r.entries, refEntry{key: key})
		i = len(r.entries) - 1
	} else {
		r.bytes -= r.entries[i].size
	}
	e := &r.entries[i]
	e.size = size
	r.bytes += size
	r.touch(e)
}

func (r *refGDSF) delete(key string) {
	if i := r.find(key); i >= 0 {
		r.bytes -= r.entries[i].size
		r.entries = append(r.entries[:i], r.entries[i+1:]...)
	}
}

// evictedFrom returns the keys the reference holds and s no longer does —
// the victims of the last operation — smallest rank first, which is the
// order a single-threaded store evicts them in.
func (r *refGDSF) evictedFrom(s *Store[int64]) []string {
	var gone []refEntry
	for _, e := range r.entries {
		if _, ok := s.Peek(e.key); !ok {
			gone = append(gone, e)
		}
	}
	slices.SortFunc(gone, func(a, b refEntry) int { return cmp.Compare(a.rank, b.rank) })
	keys := make([]string, len(gone))
	for i, e := range gone {
		keys[i] = e.key
	}
	return keys
}

// evict removes the store's victim after checking no resident entry ranks
// below it, and raises L to its rank.
func (r *refGDSF) evict(key string) error {
	i := r.find(key)
	if i < 0 {
		return fmt.Errorf("store evicted %q, which the reference does not hold", key)
	}
	victim := r.entries[i]
	for _, e := range r.entries {
		if e.rank < victim.rank {
			return fmt.Errorf("store evicted %q at rank %g, but %q ranks %g", key, victim.rank, e.key, e.rank)
		}
	}
	r.l = max(r.l, victim.rank)
	r.delete(key)
	return nil
}

// TestStoreMatchesReferenceGDSF is the core's safety net: a long
// pseudo-random single-threaded op sequence must agree with the naive
// reference on every Get, evict only minimum-rank entries, and end with the
// same contents. TestEvictsSmallestRankBlock is the focused case.
//
// The case names are the ids these runs had when a store was split into
// shards; a store now has one heap, and each case replays its own
// sequence (the shards=1 case keeps the original seed).
func TestStoreMatchesReferenceGDSF(t *testing.T) {
	for _, tc := range []struct {
		name string
		seed int64
	}{{"shards=1", 42}, {"shards=4", 4}, {"shards=16", 16}} {
		t.Run(tc.name, func(t *testing.T) {
			s := New(Options[int64]{
				MaxBytes: 100,
				SizeOf:   func(_ string, v int64) int64 { return v },
			})
			ref := &refGDSF{}
			rng := rand.New(rand.NewSource(tc.seed))
			total := 0
			for op := 0; op < 20000; op++ {
				key := fmt.Sprintf("k%02d", rng.Intn(40))
				switch rng.Intn(10) {
				case 0, 1, 2, 3:
					size := int64(1 + rng.Intn(30))
					s.Put(key, size)
					ref.put(key, size)
				default:
					_, got := s.Get(key)
					want := ref.get(key)
					if got != want {
						t.Fatalf("op %d: Get(%q) = %v, reference says %v", op, key, got, want)
					}
				}
				evicted := ref.evictedFrom(s)
				for _, k := range evicted {
					if err := ref.evict(k); err != nil {
						t.Fatalf("op %d: %v", op, err)
					}
				}
				total += len(evicted)
				if s.Bytes() != ref.bytes || s.Len() != len(ref.entries) {
					t.Fatalf("op %d: Bytes=%d Len=%d, reference %d/%d", op, s.Bytes(), s.Len(), ref.bytes, len(ref.entries))
				}
			}
			if total == 0 {
				t.Fatal("the sequence never evicted")
			}
			for _, e := range ref.entries {
				if _, ok := s.Peek(e.key); !ok {
					t.Fatalf("reference holds %q, store does not", e.key)
				}
			}
			if err := s.Audit(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestGDSFPrefersSmallPopular: GDSF evicts the large cold object before the
// small popular one, even when the large one was touched last — the
// size-aware decision recency alone cannot make.
func TestGDSFPrefersSmallPopular(t *testing.T) {
	s := New(Options[int64]{
		MaxBytes: 80,
		SizeOf:   func(_ string, v int64) int64 { return v },
	})
	s.Put("big", 60)
	s.Put("small", 10)
	for i := 0; i < 4; i++ {
		s.Get("small") // rank ≈ 5/10
	}
	// big was touched *after* small's last access; recency would evict small.
	s.Get("big")     // rank ≈ 2/60
	s.Put("new", 25) // rank ≈ 1/25, above big's 2/60
	if _, ok := s.Peek("big"); ok {
		t.Error("big cold object survived; GDSF should evict it first")
	}
	if _, ok := s.Peek("small"); !ok {
		t.Error("small popular object was evicted")
	}
	if _, ok := s.Peek("new"); !ok {
		t.Error("incoming object was not stored")
	}
	if err := s.Audit(); err != nil {
		t.Fatal(err)
	}
	if c := s.Counters(); c.Evictions != 1 {
		t.Errorf("evictions = %d, want 1 (big alone)", c.Evictions)
	}
}

// TestGDSFAging: the global inflation value L rises with every eviction,
// so a formerly popular object that stops being touched is eventually
// overtaken by fresh arrivals — GDSF does not suffer LFU's cache pollution.
func TestGDSFAging(t *testing.T) {
	s := New(Options[int64]{
		MaxBytes: 20,
		SizeOf:   func(_ string, v int64) int64 { return v },
	})
	s.Put("pop", 10)
	for i := 0; i < 10; i++ {
		s.Get("pop") // rank ≈ 11/10 = 1.1
	}
	// One-hit wonders arrive forever; each eviction raises L by 0.1.
	for i := 0; i < 30; i++ {
		s.Put(fmt.Sprintf("one-%02d", i), 10)
	}
	if _, ok := s.Peek("pop"); ok {
		t.Error("stale popular object survived 30 arrivals; L should have aged it out")
	}
	if err := s.Audit(); err != nil {
		t.Fatal(err)
	}
}

// TestGDSFConcurrent hammers a rank-heap store from many goroutines with
// sizes spanning three orders of magnitude; the heap bookkeeping must
// survive it.
func TestGDSFConcurrent(t *testing.T) {
	s := New(Options[int64]{
		MaxBytes: 64 << 10,
		SizeOf:   func(_ string, v int64) int64 { return v },
	})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 10000; i++ {
				key := fmt.Sprintf("k%03d", rng.Intn(300))
				if rng.Intn(3) == 0 {
					s.Put(key, int64(1+rng.Intn(2048)))
				} else {
					s.Get(key)
				}
			}
		}(int64(g))
	}
	wg.Wait()
	if err := s.Audit(); err != nil {
		t.Fatal(err)
	}
	if s.Bytes() > 64<<10 {
		t.Fatalf("Bytes = %d over budget", s.Bytes())
	}
}

// TestPolicyTelemetry: the eviction counter lands in the registry under the
// store's name like every other instrument.
func TestPolicyTelemetry(t *testing.T) {
	reg := telemetry.NewRegistry()
	s := New[int64](Options[int64]{
		MaxBytes:  10,
		SizeOf:    func(_ string, v int64) int64 { return v },
		Telemetry: reg,
		Name:      "test",
	})
	s.Put("a", 10)
	s.Put("b", 10) // evicts one of the two
	snap := reg.Snapshot()
	if got := snap.Counters["test.evictions"]; got != 1 {
		t.Errorf("test.evictions = %d, want 1", got)
	}
	if c := s.Counters(); c.Evictions != snap.Counters["test.evictions"] {
		t.Error("Counters() and registry disagree on evictions")
	}
}
