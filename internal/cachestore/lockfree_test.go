package cachestore

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cachecatalyst/internal/leakcheck"
)

// TestWarmGetTakesNoMutex is the direct proof of the warm-path fast lane:
// with the store's mutex held by the test, a warm Get (and Peek) must still
// return — it would deadlock if the read path touched the lock.
func TestWarmGetTakesNoMutex(t *testing.T) { t.Run("gdsf", testWarmGetTakesNoMutex) }

func testWarmGetTakesNoMutex(t *testing.T) {
	s := New(Options[string]{})
	for i := 0; i < 32; i++ {
		s.Put(fmt.Sprintf("/k%d", i), "v")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	done := make(chan bool, 1)
	go func() {
		_, ok1 := s.Get("/k7")
		_, ok2 := s.Peek("/k8")
		_, ok3 := s.Get("/k9")
		_, miss := s.Get("/absent")
		done <- ok1 && ok2 && ok3 && !miss
	}()
	select {
	case ok := <-done:
		if !ok {
			t.Fatal("lock-free reads returned wrong results")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Get blocked on the store mutex — read path is not lock-free")
	}
}

// TestGetAllocsZero pins the warm read path at zero allocations, for a hit
// and for a miss.
func TestGetAllocsZero(t *testing.T) {
	s := New(Options[string]{})
	s.Put("/page", "body")
	if n := testing.AllocsPerRun(200, func() { s.Get("/page") }); n != 0 {
		t.Fatalf("Get allocates %.1f per op, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() { s.Get("/absent") }); n != 0 {
		t.Fatalf("Get of an absent key allocates %.1f per op, want 0", n)
	}
}

// TestDeferredPromotionEvictsExactly exercises the lazy-promotion design
// directly: a burst of lock-free Gets reorders the live ranks without
// touching the heap, and the subsequent evictions (forced one at a time by
// lowering the budget just below the resident bytes) must still come out
// in exact rank order — proving victim validation pays off every deferred
// promotion before trusting a candidate.
//
// The case names are the ids these runs had when a store was split into
// shards; a store now has one heap, and each case scrambles the touch
// order with its own seed (the shards=1 case keeps the original one).
func TestDeferredPromotionEvictsExactly(t *testing.T) {
	for _, tc := range []struct {
		name string
		seed int64
	}{{"shards=1", 9}, {"shards=4", 4}, {"shards=16", 16}} {
		t.Run(tc.name, func(t *testing.T) {
			// Two bytes an entry, so the budget that forces the last
			// eviction is one byte, not the 0 that means unbounded.
			s := New(Options[int]{SizeOf: func(string, int) int64 { return 2 }})
			const n = 40
			for i := 0; i < n; i++ {
				s.Put(fmt.Sprintf("/k%02d", i), i)
			}
			// Touch the entry at position p of a scrambled order p+1 times,
			// in interleaved rounds, so every rank is distinct; these
			// promotions all stay deferred (stamp runs ahead of linked)
			// because no write intervenes.
			rng := rand.New(rand.NewSource(tc.seed))
			order := rng.Perm(n)
			for round := 0; round < n; round++ {
				for _, i := range order[round:] {
					if _, ok := s.Get(fmt.Sprintf("/k%02d", i)); !ok {
						t.Fatalf("key %d vanished", i)
					}
				}
			}
			// Evict one entry at a time: each eviction must remove exactly
			// the least touched survivor.
			for pos, i := range order {
				s.mu.Lock()
				s.maxBytes = int64(2*(n-pos) - 1)
				s.evict()
				s.mu.Unlock()
				if want := fmt.Sprintf("/k%02d", i); s.Len() != n-pos-1 {
					t.Fatalf("eviction %d left %d entries, want %d", pos, s.Len(), n-pos-1)
				} else if _, ok := s.Peek(want); ok {
					t.Fatalf("eviction %d kept %q, the smallest rank (exact rank order violated)", pos, want)
				}
			}
			if err := s.Audit(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestLockFreeStressAgainstBudget hammers every mutating operation —
// Get, Put, eviction — from many goroutines, then
// quiesces and audits. Run under -race this is the memory-safety half of
// the differential argument (the sequential half is
// TestStoreMatchesReferenceGDSF and TestDeferredPromotionEvictsExactly).
func TestLockFreeStressAgainstBudget(t *testing.T) {
	t.Parallel()
	t.Run("gdsf", testLockFreeStressAgainstBudget)
}

func testLockFreeStressAgainstBudget(t *testing.T) {
	t.Parallel()
	s := New(Options[string]{
		MaxBytes: 4 << 10,
		SizeOf:   func(_ string, v string) int64 { return int64(len(v)) },
	})
	var wg sync.WaitGroup
	for g := 0; g < 12; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			val := string(make([]byte, 48))
			for i := 0; i < 800; i++ {
				key := fmt.Sprintf("/obj-%d", rng.Intn(300))
				switch rng.Intn(10) {
				case 0, 1, 2, 3:
					s.Put(key, val)
				case 4:
					s.Peek(key)
				default:
					s.Get(key)
				}
			}
		}(g)
	}
	wg.Wait()
	if s.Bytes() > 4<<10 {
		t.Fatalf("over budget after quiesce: %d", s.Bytes())
	}
	if err := s.Audit(); err != nil {
		t.Fatal(err)
	}
	// The store must still be fully functional afterwards.
	s.Put("/after", "x")
	if v, ok := s.Get("/after"); !ok || v != "x" {
		t.Fatalf("store broken after stress: %q %v", v, ok)
	}
}

// TestEpochReclamationNoTornReads proves the publication protocol: entries
// are immutable after publication and replacement installs a whole new
// entry, so a reader that raced a replacement or an eviction must see
// either the complete old value or the complete new one — never a mix.
// Values carry a self-check (two halves that must agree, tied to the key),
// and leakcheck verifies the readers actually wind down.
func TestEpochReclamationNoTornReads(t *testing.T) {
	leakcheck.Check(t)
	type sealed struct {
		key  string
		a, b uint64 // always written equal; a torn read would disagree
	}
	s := New(Options[*sealed]{
		MaxBytes: 64, // tight: constant eviction pressure
	})
	stop := make(chan struct{})
	var torn atomic.Int64
	var wg sync.WaitGroup
	keys := make([]string, 16)
	for i := range keys {
		keys[i] = fmt.Sprintf("/page-%d", i)
	}
	for r := 0; r < 8; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(r)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				key := keys[rng.Intn(len(keys))]
				if v, ok := s.Get(key); ok {
					if v.a != v.b || v.key != key {
						torn.Add(1)
						return
					}
				}
			}
		}(r)
	}
	var seq atomic.Uint64
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			for i := 0; i < 4000; i++ {
				key := keys[rng.Intn(len(keys))]
				n := seq.Add(1)
				s.Put(key, &sealed{key: key, a: n, b: n})
				if i%97 == 0 {
					runtime.GC() // reclaim retired entries while readers hold some
				}
			}
		}(w)
	}
	// Writers finish on their own; readers run until told to stop.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	time.Sleep(50 * time.Millisecond)
	close(stop)
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("stress goroutines did not finish")
	}
	if n := torn.Load(); n != 0 {
		t.Fatalf("%d torn reads observed — publication protocol violated", n)
	}
	if err := s.Audit(); err != nil {
		t.Fatal(err)
	}
}
