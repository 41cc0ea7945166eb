package core

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cachecatalyst/internal/etag"
	"cachecatalyst/internal/leakcheck"
)

// gateResolver blocks every ETagFor call until released, counting the calls
// that started — the shape of a slow origin mid-probe.
type gateResolver struct {
	started atomic.Int64
	release chan struct{}
}

func (g *gateResolver) ETagFor(path string) (etag.Tag, bool) {
	g.started.Add(1)
	<-g.release
	return etag.ForBytes([]byte(path)), true
}

func (g *gateResolver) StylesheetBody(path string) (string, bool) { return "", false }

func manyRefs(n int) []Ref {
	refs := make([]Ref, n)
	for i := range refs {
		refs[i] = Ref{Key: fmt.Sprintf("/r%03d.js", i)}
	}
	return refs
}

// TestResolveRefsContextCancelStopsFanout verifies the satellite contract:
// a context cancelled mid-build stops the probe workers promptly — no
// further lookups start, every worker goroutine drains (leakcheck), and the
// call returns instead of completing the whole BFS.
func TestResolveRefsContextCancelStopsFanout(t *testing.T) {
	leakcheck.Check(t)

	const workers = 4
	res := &gateResolver{release: make(chan struct{})}
	ctx, cancel := context.WithCancel(context.Background())

	done := make(chan ETagMap, 1)
	go func() {
		done <- ResolveRefsContext(ctx, manyRefs(64), extracting{res}, BuildOptions{Concurrency: workers})
	}()

	// Wait for the fan-out to be mid-flight: every worker blocked in a
	// lookup.
	deadline := time.Now().Add(2 * time.Second)
	for res.started.Load() < workers {
		if time.Now().After(deadline) {
			t.Fatalf("only %d lookups started", res.started.Load())
		}
		time.Sleep(time.Millisecond)
	}

	cancel()
	close(res.release) // let the in-flight calls finish

	select {
	case m := <-done:
		// Only the in-flight lookups may have completed; the other ~60
		// must never have started.
		if got := res.started.Load(); got > workers {
			t.Fatalf("%d lookups started after cancel (want ≤ %d)", got, workers)
		}
		if len(m) > workers {
			t.Fatalf("cancelled resolve returned %d entries", len(m))
		}
	case <-time.After(2 * time.Second):
		t.Fatal("ResolveRefsContext did not return after cancel")
	}
}

// TestResolveRefsContextCancelBeforeStart returns immediately with an empty
// map and never touches the resolver.
func TestResolveRefsContextCancelBeforeStart(t *testing.T) {
	leakcheck.Check(t)
	res := &gateResolver{release: make(chan struct{})}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	m := ResolveRefsContext(ctx, manyRefs(8), extracting{res}, BuildOptions{Concurrency: 4})
	if len(m) != 0 {
		t.Fatalf("map has %d entries, want 0", len(m))
	}
	if res.started.Load() != 0 {
		t.Fatalf("%d lookups started under a dead context", res.started.Load())
	}
}

// TestResolveRefsContextSequentialCancel covers the Concurrency<=1 inline
// path: cancellation between items stops the walk.
func TestResolveRefsContextSequentialCancel(t *testing.T) {
	leakcheck.Check(t)
	ctx, cancel := context.WithCancel(context.Background())
	var calls int
	res := funcResolver(func(path string) (etag.Tag, bool) {
		calls++
		if calls == 3 {
			cancel()
		}
		return etag.ForBytes([]byte(path)), true
	})
	m := ResolveRefsContext(ctx, manyRefs(32), extracting{res}, BuildOptions{})
	if calls > 3 {
		t.Fatalf("%d lookups ran after cancel", calls)
	}
	if len(m) > 3 {
		t.Fatalf("map has %d entries", len(m))
	}
}

// TestResolveRefsContextUncancelledMatchesResolveRefs: the context variant
// with a live context is byte-for-byte the legacy behaviour.
func TestResolveRefsContextUncancelledMatchesResolveRefs(t *testing.T) {
	res := funcResolver(func(path string) (etag.Tag, bool) {
		return etag.ForBytes([]byte(path)), true
	})
	refs := manyRefs(16)
	a := ResolveRefs(refs, res, BuildOptions{Concurrency: 4})
	b := ResolveRefsContext(context.Background(), refs, extracting{res}, BuildOptions{Concurrency: 4})
	if len(a) != len(b) || len(a) != 16 {
		t.Fatalf("len(a)=%d len(b)=%d", len(a), len(b))
	}
	for k, v := range a {
		if b[k] != v {
			t.Fatalf("maps differ at %q", k)
		}
	}
}

// funcResolver adapts a function to Resolver (no stylesheet bodies).
type funcResolver func(path string) (etag.Tag, bool)

func (f funcResolver) ETagFor(path string) (etag.Tag, bool)      { return f(path) }
func (f funcResolver) StylesheetBody(path string) (string, bool) { return "", false }

// TestRunIndexedCancelUnderRace hammers the worker pool with concurrent
// cancels to give the race detector surface area.
func TestRunIndexedCancelUnderRace(t *testing.T) {
	leakcheck.Check(t)
	for round := 0; round < 20; round++ {
		ctx, cancel := context.WithCancel(context.Background())
		var ran atomic.Int64
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			runIndexed(ctx, 100, 8, func(i int) {
				ran.Add(1)
				time.Sleep(50 * time.Microsecond)
			})
		}()
		time.Sleep(time.Duration(round%5) * 100 * time.Microsecond)
		cancel()
		wg.Wait()
	}
}
