package cachestore

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func sized(maxBytes int64) *Store[string] {
	return New[string](Options[string]{
		MaxBytes: maxBytes,
		SizeOf:   func(_ string, v string) int64 { return int64(len(v)) },
	})
}

func TestPutGetPeekDelete(t *testing.T) {
	s := New[int](Options[int]{})
	if _, ok := s.Get("a"); ok {
		t.Fatal("empty store returned a value")
	}
	s.Put("a", 1)
	s.Put("b", 2)
	if v, ok := s.Get("a"); !ok || v != 1 {
		t.Fatalf("Get(a) = %d, %v", v, ok)
	}
	if v, ok := s.Peek("b"); !ok || v != 2 {
		t.Fatalf("Peek(b) = %d, %v", v, ok)
	}
	if s.Len() != 2 || s.Bytes() != 2 { // default SizeOf charges 1
		t.Fatalf("Len=%d Bytes=%d", s.Len(), s.Bytes())
	}
	if !s.Delete("a") || s.Delete("a") {
		t.Fatal("Delete bookkeeping wrong")
	}
	if s.Len() != 1 || s.Bytes() != 1 {
		t.Fatalf("after delete: Len=%d Bytes=%d", s.Len(), s.Bytes())
	}
	s.Clear()
	if s.Len() != 0 || s.Bytes() != 0 {
		t.Fatalf("after clear: Len=%d Bytes=%d", s.Len(), s.Bytes())
	}
	c := s.Counters()
	if c.Hits != 1 || c.Misses != 1 || c.Puts != 2 {
		t.Fatalf("counters: %+v", c)
	}
}

func TestReplaceAccountsBytes(t *testing.T) {
	s := sized(100)
	s.Put("k", "0123456789")
	s.Put("k", "abc")
	if s.Bytes() != 3 || s.Len() != 1 {
		t.Fatalf("Bytes=%d Len=%d", s.Bytes(), s.Len())
	}
	if v, _ := s.Get("k"); v != "abc" {
		t.Fatalf("v = %q", v)
	}
}

// TestGlobalOrderAcrossShards drives many keys — spread over every shard —
// through a byte budget and asserts every victim is the globally
// smallest-rank entry, whichever shard holds it.
func TestGlobalOrderAcrossShards(t *testing.T) {
	s := sized(20)
	for i := 0; i < 10; i++ {
		s.Put(fmt.Sprintf("k%02d", i), "xx") // rank 1/2
	}
	// Touch the first five three times (rank 4/2), so the second five
	// become the block of smallest ranks.
	for i := 0; i < 5; i++ {
		for j := 0; j < 3; j++ {
			if _, ok := s.Get(fmt.Sprintf("k%02d", i)); !ok {
				t.Fatalf("k%02d missing before eviction", i)
			}
		}
	}
	// Ten one-byte arrivals (rank L + 1, with L at most 1/2) push out
	// exactly ten bytes: the five untouched two-byte entries.
	for i := 10; i < 20; i++ {
		s.Put(fmt.Sprintf("k%02d", i), "x")
	}
	for i := 5; i < 10; i++ {
		if _, ok := s.Peek(fmt.Sprintf("k%02d", i)); ok {
			t.Errorf("k%02d should have been evicted (smallest rank)", i)
		}
	}
	for _, i := range []int{0, 1, 2, 3, 4, 10, 19} {
		if _, ok := s.Peek(fmt.Sprintf("k%02d", i)); !ok {
			t.Errorf("higher-ranked k%02d was evicted", i)
		}
	}
	if c := s.Counters(); c.Evictions != 5 {
		t.Fatalf("evictions = %d, want 5", c.Evictions)
	}
}

func TestOverBudgetEntryEvictedEntirely(t *testing.T) {
	s := sized(5)
	s.Put("big", "0123456789")
	if s.Bytes() > 5 || s.Len() != 0 {
		t.Fatalf("Bytes=%d Len=%d after over-budget put", s.Bytes(), s.Len())
	}
	s.Put("ok", "abc")
	if _, ok := s.Get("ok"); !ok {
		t.Fatal("store broken after over-budget put")
	}
}

func TestOnEvictObservesOnlyBudgetEvictions(t *testing.T) {
	var evicted []string
	s := New[string](Options[string]{
		MaxBytes: 3,
		SizeOf:   func(_ string, v string) int64 { return int64(len(v)) },
		OnEvict:  func(k string, _ string) { evicted = append(evicted, k) },
	})
	s.Put("a", "1")
	s.Put("a", "2") // replacement: no callback (a's rank 2/1)
	s.Put("b", "11")
	s.Delete("b")    // delete: no callback
	s.Put("b", "11") // rank 1/2
	s.Put("c", "1")  // budget: evicts b, the smallest rank
	if len(evicted) != 1 || evicted[0] != "b" {
		t.Fatalf("evicted = %v", evicted)
	}
}

// TestPeekDoesNotPromote: a Peek neither raises an entry's frequency nor
// touches the counters, so a peeked entry is still the first victim.
func TestPeekDoesNotPromote(t *testing.T) {
	s := sized(4)
	s.Put("a", "xx") // rank 1/2; three promotions would lift it to 4/2
	s.Put("b", "x")  // rank 1
	for i := 0; i < 3; i++ {
		if _, ok := s.Peek("a"); !ok {
			t.Fatal("peek miss")
		}
	}
	if e, _ := s.shard("a").index.Load("a"); e.(*node[string]).freq.Load() != 1 {
		t.Fatal("Peek raised the entry's frequency")
	}
	s.Put("c", "x")
	s.Put("d", "x") // over budget: evicts a, still the smallest rank
	if _, ok := s.Peek("a"); ok {
		t.Fatal("Peek promoted the entry")
	}
	if c := s.Counters(); c.Hits != 0 || c.Misses != 0 {
		t.Fatalf("Peek touched counters: %+v", c)
	}
}

func TestKeys(t *testing.T) {
	s := New[int](Options[int]{})
	want := map[string]bool{"a": true, "b": true, "c": true}
	for k := range want {
		s.Put(k, 1)
	}
	got := s.Keys()
	if len(got) != len(want) {
		t.Fatalf("Keys = %v", got)
	}
	for _, k := range got {
		if !want[k] {
			t.Fatalf("unexpected key %q", k)
		}
	}
}

func TestDoCollapsesConcurrentLoads(t *testing.T) {
	s := New[int](Options[int]{})
	var calls atomic.Int64
	start := make(chan struct{})
	release := make(chan struct{})
	const waiters = 16

	var wg sync.WaitGroup
	results := make([]int, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			v, _, err := s.Do("k", func() (int, error) {
				calls.Add(1)
				<-release // hold the flight open until everyone queued
				return 42, nil
			})
			if err != nil {
				t.Error(err)
			}
			results[i] = v
		}(i)
	}
	close(start)
	time.Sleep(20 * time.Millisecond) // let the waiters pile onto the flight
	close(release)
	wg.Wait()

	if got := calls.Load(); got != 1 {
		t.Fatalf("loader ran %d times, want 1", got)
	}
	for i, v := range results {
		if v != 42 {
			t.Fatalf("waiter %d got %d", i, v)
		}
	}
	if c := s.Counters(); c.Loads != 1 || c.LoadsShared != waiters-1 {
		t.Fatalf("counters: %+v", c)
	}
}

func TestDoPanicDoesNotStrandWaiters(t *testing.T) {
	s := New[int](Options[int]{})
	inFlight := make(chan struct{})
	release := make(chan struct{})

	go func() {
		defer func() { recover() }()
		s.Do("k", func() (int, error) {
			close(inFlight)
			<-release
			panic("loader bug")
		})
	}()
	<-inFlight

	done := make(chan error, 1)
	go func() {
		_, _, err := s.Do("k", func() (int, error) { return 0, nil })
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	close(release)

	select {
	case err := <-done:
		if err == nil {
			t.Fatal("waiter saw no error from the panicked flight")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiter stranded after loader panic")
	}
}

// TestDoNeverCachesAFailedLoad: Do neither reads nor writes the store, so
// a caller caches a load by Putting it inside the flight, and a failed load,
// which it does not Put, is not cached.
func TestDoNeverCachesAFailedLoad(t *testing.T) {
	s := New[string](Options[string]{})
	_, _, err := s.Do("bad", func() (string, error) { return "", fmt.Errorf("nope") })
	if err == nil {
		t.Fatal("error swallowed")
	}
	if _, ok := s.Peek("bad"); ok {
		t.Fatal("failed load was cached")
	}
}

// TestConcurrentStress hammers one bounded store from many goroutines and
// then audits every invariant the store promises: byte accounting matches
// the surviving entries, the budget holds, and the counters add up.
func TestConcurrentStress(t *testing.T) {
	t.Parallel()
	s := New[string](Options[string]{
		Shards:   8,
		MaxBytes: 1 << 12,
		SizeOf:   func(_ string, v string) int64 { return int64(len(v)) },
	})
	var gets, wantHitsPlusMisses atomic.Int64

	const goroutines = 16
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			val := string(make([]byte, 64))
			for i := 0; i < 500; i++ {
				key := fmt.Sprintf("/asset-%d", (g*31+i*7)%200)
				switch i % 5 {
				case 0, 1:
					s.Put(key, val)
				case 2, 3:
					s.Get(key)
					gets.Add(1)
				case 4:
					if i%20 == 4 {
						s.Delete(key)
					} else {
						s.Do(key, func() (string, error) {
							s.Put(key, val)
							return val, nil
						})
					}
				}
			}
		}(g)
	}
	wg.Wait()

	if s.Bytes() > 1<<12 {
		t.Fatalf("store over budget after stress: %d", s.Bytes())
	}
	var sum int64
	for _, k := range s.Keys() {
		v, ok := s.Peek(k)
		if !ok {
			t.Fatalf("Keys returned vanished key %q", k)
		}
		sum += int64(len(v))
	}
	if sum != s.Bytes() {
		t.Fatalf("byte accounting drifted: sum=%d Bytes=%d", sum, s.Bytes())
	}
	c := s.Counters()
	wantHitsPlusMisses.Store(gets.Load())
	if c.Hits+c.Misses < wantHitsPlusMisses.Load() {
		t.Fatalf("hits+misses=%d < observed gets %d (%+v)", c.Hits+c.Misses, wantHitsPlusMisses.Load(), c)
	}
	if c.Puts == 0 || c.Evictions == 0 {
		t.Fatalf("stress produced no puts/evictions: %+v", c)
	}
	if err := s.Audit(); err != nil {
		t.Fatal(err)
	}
}

func TestAuditDetectsDrift(t *testing.T) {
	s := New[string](Options[string]{
		SizeOf: func(_ string, v string) int64 { return int64(len(v)) },
	})
	s.Put("/a", "aaaa")
	s.Put("/b", "bb")
	if err := s.Audit(); err != nil {
		t.Fatalf("clean store failed audit: %v", err)
	}
	s.bytes.Add(3) // simulate an accounting bug
	if err := s.Audit(); err == nil {
		t.Fatal("audit missed a byte-counter drift")
	}
	s.bytes.Add(-3)
	s.Delete("/a")
	s.Clear()
	if err := s.Audit(); err != nil {
		t.Fatalf("empty store failed audit: %v", err)
	}
	// The heap is audited too: a node in a slot it does not claim is
	// caught.
	one := New[string](Options[string]{Shards: 1})
	one.Put("/a", "a")
	one.Put("/b", "b")
	h := one.shards[0].heap
	h[0], h[1] = h[1], h[0]
	if err := one.Audit(); err == nil {
		t.Fatal("audit missed a misplaced heap node")
	}
}
