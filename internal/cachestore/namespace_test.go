package cachestore

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"cachecatalyst/internal/telemetry"
)

// TestNamespaceDifferential pins the namespace contract: a namespace of a
// shared parent behaves exactly like an independent store constructed with
// the parent's options — same hits, same residency, same byte accounting,
// same eviction victims — under a deterministic mixed op sequence across
// several tenants.
func TestNamespaceDifferential(t *testing.T) { t.Run("gdsf", testNamespaceDifferential) }

func testNamespaceDifferential(t *testing.T) {
	opts := Options[string]{
		Shards:   4,
		MaxBytes: 2048,
		SizeOf:   func(k string, v string) int64 { return int64(len(v)) },
	}
	parent := New(opts)
	tenants := []string{"alpha", "beta", "gamma"}
	views := make(map[string]*Store[string])
	oracle := make(map[string]*Store[string])
	for _, tn := range tenants {
		views[tn] = parent.NamespaceWith(tn, NamespaceOptions{})
		oracle[tn] = New(opts)
	}

	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 8000; i++ {
		tn := tenants[rng.Intn(len(tenants))]
		key := fmt.Sprintf("/p%d", rng.Intn(64))
		ns, ind := views[tn], oracle[tn]
		switch rng.Intn(4) {
		case 0, 1:
			v := fmt.Sprintf("%s-%d", key, rng.Intn(8)*37)
			ns.Put(key, v)
			ind.Put(key, v)
		case 2:
			av, aok := ns.Get(key)
			bv, bok := ind.Get(key)
			if aok != bok || av != bv {
				t.Fatalf("op %d tenant %s Get(%q): namespace (%q,%v) vs independent (%q,%v)",
					i, tn, key, av, aok, bv, bok)
			}
		case 3:
			if ns.Delete(key) != ind.Delete(key) {
				t.Fatalf("op %d tenant %s Delete(%q) diverged", i, tn, key)
			}
		}
	}
	for _, tn := range tenants {
		ns, ind := views[tn], oracle[tn]
		if ns.Len() != ind.Len() || ns.Bytes() != ind.Bytes() {
			t.Fatalf("tenant %s: namespace %d entries/%d bytes, independent %d/%d",
				tn, ns.Len(), ns.Bytes(), ind.Len(), ind.Bytes())
		}
		for _, key := range ind.Keys() {
			if _, ok := ns.Peek(key); !ok {
				t.Fatalf("tenant %s: key %q resident independently, missing in namespace", tn, key)
			}
		}
		if err := ns.Audit(); err != nil {
			t.Fatalf("tenant %s: %v", tn, err)
		}
	}
}

// TestNamespaceIsolation pins the no-starvation guarantee: one tenant
// thrashing far past its budget never evicts a byte of a sibling's.
func TestNamespaceIsolation(t *testing.T) {
	parent := New(Options[string]{
		MaxBytes: 1 << 20,
		SizeOf:   func(k, v string) int64 { return int64(len(v)) },
	})
	quiet := parent.NamespaceWith("quiet", NamespaceOptions{MaxBytes: 4096})
	noisy := parent.NamespaceWith("noisy", NamespaceOptions{MaxBytes: 1024})

	for i := 0; i < 8; i++ {
		quiet.Put(fmt.Sprintf("/q%d", i), "0123456789abcdef") // 16 B each
	}
	wantBytes := quiet.Bytes()

	// The noisy tenant churns 100x its budget.
	for i := 0; i < 2000; i++ {
		noisy.Put(fmt.Sprintf("/n%d", i), "xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx")
	}
	if got := noisy.Bytes(); got > 1024 {
		t.Fatalf("noisy namespace holds %d bytes, budget 1024", got)
	}
	if got := quiet.Bytes(); got != wantBytes {
		t.Fatalf("quiet namespace lost bytes to a sibling: %d, want %d", got, wantBytes)
	}
	for i := 0; i < 8; i++ {
		if _, ok := quiet.Peek(fmt.Sprintf("/q%d", i)); !ok {
			t.Fatalf("quiet entry /q%d evicted by sibling pressure", i)
		}
	}
}

// TestNamespaceMemoized pins that a name always maps to one child, even
// under concurrent first use, and that creation-time options only apply on
// the first call.
func TestNamespaceMemoized(t *testing.T) {
	parent := New(Options[int]{MaxBytes: 100})
	var wg sync.WaitGroup
	got := make([]*Store[int], 16)
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = parent.NamespaceWith("t", NamespaceOptions{})
		}(i)
	}
	wg.Wait()
	for i := 1; i < len(got); i++ {
		if got[i] != got[0] {
			t.Fatal("concurrent Namespace calls returned distinct children")
		}
	}
	if again := parent.NamespaceWith("t", NamespaceOptions{MaxBytes: 5}); again != got[0] {
		t.Fatal("NamespaceWith after creation returned a new child")
	}
	if got[0].MaxBytes() != 100 {
		t.Fatalf("memoized child budget %d, want the creation-time 100", got[0].MaxBytes())
	}
}

// TestNamespaceTelemetry pins the instrument naming: children register
// under "<parent>.ns.<name>" by default, or the explicit override.
func TestNamespaceTelemetry(t *testing.T) {
	reg := telemetry.NewRegistry()
	parent := New(Options[int]{Telemetry: reg, Name: "edge.renders"})
	ns := parent.NamespaceWith("alpha", NamespaceOptions{})
	ns.Get("/missing")
	custom := parent.NamespaceWith("beta", NamespaceOptions{TelemetryName: "tenant.beta.renders"})
	custom.Get("/missing")

	snap := reg.Snapshot()
	if snap.Counters["edge.renders.ns.alpha.misses"] != 1 {
		t.Fatalf("default-named namespace miss not registered: %v", snap.Counters)
	}
	if snap.Counters["tenant.beta.renders.misses"] != 1 {
		t.Fatalf("override-named namespace miss not registered: %v", snap.Counters)
	}
}

// TestNamespaceUnbounded pins the negative-budget escape hatch.
func TestNamespaceUnbounded(t *testing.T) {
	parent := New(Options[string]{MaxBytes: 64, SizeOf: func(k, v string) int64 { return int64(len(v)) }})
	free := parent.NamespaceWith("free", NamespaceOptions{MaxBytes: -1})
	for i := 0; i < 100; i++ {
		free.Put(fmt.Sprintf("/f%d", i), "0123456789abcdef")
	}
	if got := free.Len(); got != 100 {
		t.Fatalf("unbounded namespace evicted: %d entries, want 100", got)
	}
}
