package cachestore

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"cachecatalyst/internal/telemetry"
)

// refLRU is the differential-test oracle: a deliberately naive exact
// global LRU over one ordered slice — no shards, no heaps, no stamps.
// Whatever the refactored store does under the default policy must be
// byte-identical to this.
type refLRU struct {
	max     int64
	bytes   int64
	order   []string // index 0 = most recently used
	sizes   map[string]int64
	evicted []string
}

func newRefLRU(max int64) *refLRU {
	return &refLRU{max: max, sizes: make(map[string]int64)}
}

func (r *refLRU) front(key string) {
	for i, k := range r.order {
		if k == key {
			r.order = append(r.order[:i], r.order[i+1:]...)
			break
		}
	}
	r.order = append([]string{key}, r.order...)
}

func (r *refLRU) get(key string) bool {
	if _, ok := r.sizes[key]; !ok {
		return false
	}
	r.front(key)
	return true
}

func (r *refLRU) put(key string, size int64) {
	if old, ok := r.sizes[key]; ok {
		r.bytes += size - old
	} else {
		r.bytes += size
	}
	r.sizes[key] = size
	r.front(key)
	for r.bytes > r.max && len(r.order) > 0 {
		victim := r.order[len(r.order)-1]
		r.order = r.order[:len(r.order)-1]
		r.bytes -= r.sizes[victim]
		delete(r.sizes, victim)
		r.evicted = append(r.evicted, victim)
	}
}

func (r *refLRU) delete(key string) {
	size, ok := r.sizes[key]
	if !ok {
		return
	}
	r.bytes -= size
	delete(r.sizes, key)
	for i, k := range r.order {
		if k == key {
			r.order = append(r.order[:i], r.order[i+1:]...)
			break
		}
	}
}

// TestDefaultPolicyMatchesReferenceLRU is the refactor's safety net: a
// long pseudo-random single-threaded op sequence through the policy-layer
// store (default policy and the explicitly named LRU policy, across shard
// counts) must produce the exact eviction order — and final contents — of
// the naive reference LRU. TestGlobalLRUAcrossShards remains the focused
// oracle for cross-shard ordering.
func TestDefaultPolicyMatchesReferenceLRU(t *testing.T) {
	for _, shards := range []int{1, 4, 16} {
		for _, named := range []bool{false, true} {
			t.Run(fmt.Sprintf("shards=%d/named=%v", shards, named), func(t *testing.T) {
				var pol Policy
				if named {
					pol = Policy{Eviction: LRU()}
				}
				var evicted []string
				s := New[int64](Options[int64]{
					Shards:   shards,
					MaxBytes: 100,
					SizeOf:   func(_ string, v int64) int64 { return v },
					Policy:   pol,
					OnEvict:  func(k string, _ int64) { evicted = append(evicted, k) },
				})
				ref := newRefLRU(100)
				rng := rand.New(rand.NewSource(42))
				for op := 0; op < 20000; op++ {
					key := fmt.Sprintf("k%02d", rng.Intn(40))
					switch rng.Intn(10) {
					case 0:
						s.Delete(key)
						ref.delete(key)
					case 1, 2, 3:
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
					if len(evicted) != len(ref.evicted) {
						t.Fatalf("op %d: %d evictions, reference has %d", op, len(evicted), len(ref.evicted))
					}
				}
				for i := range evicted {
					if evicted[i] != ref.evicted[i] {
						t.Fatalf("eviction %d: got %q, reference evicted %q", i, evicted[i], ref.evicted[i])
					}
				}
				if s.Bytes() != ref.bytes || s.Len() != len(ref.sizes) {
					t.Fatalf("final state: Bytes=%d Len=%d, reference %d/%d", s.Bytes(), s.Len(), ref.bytes, len(ref.sizes))
				}
				for k := range ref.sizes {
					if _, ok := s.Peek(k); !ok {
						t.Fatalf("reference holds %q, store does not", k)
					}
				}
				if err := s.Audit(); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestGDSFPrefersSmallPopular: with equal recency, GDSF evicts the large
// cold object before the small popular one — the size-aware decision LRU
// cannot make.
func TestGDSFPrefersSmallPopular(t *testing.T) {
	s := New[int64](Options[int64]{
		Shards:   4,
		MaxBytes: 80,
		SizeOf:   func(_ string, v int64) int64 { return v },
		Policy:   Policy{Eviction: GDSF()},
	})
	s.Put("big", 60)
	s.Put("small", 10)
	for i := 0; i < 4; i++ {
		s.Get("small") // rank ≈ 5/10
	}
	// big was touched *after* small's last access; LRU would evict small.
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
	if c := s.Counters(); c.VictimScans == 0 {
		t.Error("victim selection recorded no scans")
	}
}

// TestGDSFAging: the global inflation value L rises with every eviction,
// so a formerly popular object that stops being touched is eventually
// overtaken by fresh arrivals — GDSF does not suffer LFU's cache pollution.
func TestGDSFAging(t *testing.T) {
	s := New[int64](Options[int64]{
		Shards:   1,
		MaxBytes: 20,
		SizeOf:   func(_ string, v int64) int64 { return v },
		Policy:   Policy{Eviction: GDSF()},
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

// TestResizeEvictsDown: shrinking the budget evicts under the active
// policy immediately; growing it stops evictions.
func TestResizeEvictsDown(t *testing.T) {
	for _, pol := range []Policy{{}, {Eviction: GDSF()}} {
		t.Run(pol.Name(), func(t *testing.T) {
			s := New[int64](Options[int64]{
				Shards:   4,
				MaxBytes: 100,
				SizeOf:   func(_ string, v int64) int64 { return v },
				Policy:   pol,
			})
			for i := 0; i < 10; i++ {
				s.Put(fmt.Sprintf("k%d", i), 10)
			}
			if s.Bytes() != 100 {
				t.Fatalf("Bytes = %d, want 100", s.Bytes())
			}
			s.Resize(35)
			if s.Bytes() > 35 {
				t.Fatalf("Bytes = %d after Resize(35)", s.Bytes())
			}
			if s.MaxBytes() != 35 {
				t.Fatalf("MaxBytes = %d, want 35", s.MaxBytes())
			}
			s.Resize(1000)
			for i := 0; i < 10; i++ {
				s.Put(fmt.Sprintf("g%d", i), 10)
			}
			if got := s.Counters().Evictions; got != 7 {
				t.Fatalf("evictions = %d after growing the budget, want 7", got)
			}
			if err := s.Audit(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestResizeConcurrent stresses live budget changes against a full
// Get/Put/Delete load under every policy; the store must end within budget
// with intact bookkeeping.
func TestResizeConcurrent(t *testing.T) {
	for _, pol := range []Policy{{}, {Eviction: GDSF()}} {
		t.Run(pol.Name(), func(t *testing.T) {
			s := New[int64](Options[int64]{
				Shards:   8,
				MaxBytes: 1 << 20,
				SizeOf:   func(_ string, v int64) int64 { return v },
				Policy:   pol,
			})
			var wg sync.WaitGroup
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func(seed int64) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(seed))
					for i := 0; i < 5000; i++ {
						key := fmt.Sprintf("k%03d", rng.Intn(500))
						switch rng.Intn(10) {
						case 0:
							s.Delete(key)
						case 1, 2, 3, 4:
							s.Put(key, int64(1+rng.Intn(4096)))
						default:
							s.Get(key)
						}
					}
				}(int64(g))
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				rng := rand.New(rand.NewSource(99))
				for i := 0; i < 200; i++ {
					s.Resize(int64(4096 + rng.Intn(1<<20)))
				}
			}()
			wg.Wait()
			s.Resize(4096)
			if s.Bytes() > 4096 {
				t.Fatalf("Bytes = %d after final Resize(4096)", s.Bytes())
			}
			if err := s.Audit(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestGDSFConcurrent hammers a rank-heap store from many goroutines —
// the heap bookkeeping must survive the same concurrent load the LRU
// lists do.
func TestGDSFConcurrent(t *testing.T) {
	s := New[int64](Options[int64]{
		Shards:   8,
		MaxBytes: 64 << 10,
		SizeOf:   func(_ string, v int64) int64 { return v },
		Policy:   Policy{Eviction: GDSF()},
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

func TestParsePolicy(t *testing.T) {
	for _, name := range PolicyNames() {
		p, err := ParsePolicy(name)
		if err != nil {
			t.Fatalf("ParsePolicy(%q): %v", name, err)
		}
		if p.Name() != name {
			t.Errorf("ParsePolicy(%q).Name() = %q", name, p.Name())
		}
	}
	if p, err := ParsePolicy(""); err != nil || p.Name() != "lru" {
		t.Errorf("empty name: %v, %q", err, p.Name())
	}
	// The retired admission spellings must fail loudly, naming what is
	// accepted, not fall back to LRU.
	for _, name := range []string{"belady", "tinylfu", "tinylfu-lru", "tinylfu-gdsf"} {
		_, err := ParsePolicy(name)
		if err == nil {
			t.Errorf("ParsePolicy(%q) accepted", name)
		} else if msg := err.Error(); !strings.Contains(msg, "lru") || !strings.Contains(msg, "gdsf") {
			t.Errorf("ParsePolicy(%q) error %q does not name the accepted spellings", name, msg)
		}
	}
}

// TestPolicyTelemetry: the victim-selection counter lands in the registry
// under the store's name like every other instrument.
func TestPolicyTelemetry(t *testing.T) {
	reg := telemetry.NewRegistry()
	s := New[int64](Options[int64]{
		MaxBytes:  10,
		SizeOf:    func(_ string, v int64) int64 { return v },
		Policy:    Policy{Eviction: GDSF()},
		Telemetry: reg,
		Name:      "test",
	})
	s.Put("a", 10)
	s.Put("b", 10) // evicts a
	snap := reg.Snapshot()
	if got := snap.Counters["test.victim_scans"]; got < 1 {
		t.Errorf("test.victim_scans = %d, want ≥ 1", got)
	}
	if c := s.Counters(); c.VictimScans != snap.Counters["test.victim_scans"] {
		t.Error("Counters() and registry disagree on victim scans")
	}
}
