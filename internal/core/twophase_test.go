package core

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cachecatalyst/internal/etag"
)

func TestExtractPageRefsOrderAndDedup(t *testing.T) {
	html := `<html><head>
		<link rel="stylesheet" href="/a.css">
		<script src="/app.js"></script>
	</head><body>
		<img src="/logo.png">
		<img src="/logo.png">
		<script src="/a.css"></script>
		<img src="https://cdn.example/x.png">
	</body></html>`
	refs := ExtractPageRefs("/index.html", html)
	want := []Ref{
		{Key: "/a.css", CSS: true},
		{Key: "/app.js"},
		{Key: "/logo.png"},
		{Key: "https://cdn.example/x.png", Cross: true},
	}
	if len(refs) != len(want) {
		t.Fatalf("refs = %v, want %v", refs, want)
	}
	for i := range want {
		if refs[i] != want[i] {
			t.Errorf("refs[%d] = %v, want %v", i, refs[i], want[i])
		}
	}
}

func TestExtractPageRefsMergesCSSFlagAcrossOccurrences(t *testing.T) {
	// A path referenced first as a plain resource and later as a
	// stylesheet must still be recursed into.
	html := `<img src="/dual.css"><link rel="stylesheet" href="/dual.css">`
	refs := ExtractPageRefs("/", html)
	if len(refs) != 1 || !refs[0].CSS {
		t.Fatalf("refs = %v, want one CSS entry", refs)
	}
}

func TestExtractCSSRefs(t *testing.T) {
	refs := ExtractCSSRefs("/css/a.css", `@import "deep.css"; .x { background: url(../img/bg.png); }`)
	want := []Ref{
		{Key: "/css/deep.css", CSS: true},
		{Key: "/img/bg.png"},
	}
	if len(refs) != len(want) {
		t.Fatalf("refs = %v, want %v", refs, want)
	}
	for i := range want {
		if refs[i] != want[i] {
			t.Errorf("refs[%d] = %v, want %v", i, refs[i], want[i])
		}
	}
}

// deepSite builds a resolver and page exercising CSS recursion, duplicate
// references, missing resources, and cross-origin entries all at once.
func deepSite() (*fakeResolver, string, func(string) (etag.Tag, bool)) {
	res := &fakeResolver{tags: map[string]etag.Tag{}, css: map[string]string{}}
	var html string
	for i := 0; i < 4; i++ {
		p := fmt.Sprintf("/css/s%d.css", i)
		res.tags[p] = etag.ForVersion(p, 1)
		res.css[p] = fmt.Sprintf("@import 'n%d.css'; .x { background: url(/img/c%d.png) }", i, i)
		np := fmt.Sprintf("/css/n%d.css", i)
		res.tags[np] = etag.ForVersion(np, 1)
		res.css[np] = fmt.Sprintf(".y { src: url(/fonts/f%d.woff) }", i)
		res.tags[fmt.Sprintf("/img/c%d.png", i)] = etag.ForVersion(p, 2)
		res.tags[fmt.Sprintf("/fonts/f%d.woff", i)] = etag.ForVersion(np, 2)
		html += fmt.Sprintf(`<link rel="stylesheet" href="%s">`, p)
	}
	for i := 0; i < 30; i++ {
		p := fmt.Sprintf("/img/i%02d.png", i)
		res.tags[p] = etag.ForVersion(p, 1)
		html += fmt.Sprintf(`<img src="%s">`, p)
	}
	html += `<img src="/missing.png"><img src="/img/i00.png">`
	html += `<script src="https://cdn.example/lib.js"></script>`
	xo := func(u string) (etag.Tag, bool) { return etag.ForVersion(u, 9), true }
	return res, html, xo
}

// Property: the parallel resolve phase produces exactly the map the
// sequential one does, whatever the fan-out width.
func TestResolveRefsParallelMatchesSequential(t *testing.T) {
	res, html, xo := deepSite()
	seq := BuildMap("/index.html", html, res, BuildOptions{CrossOriginETag: xo})
	if len(seq) == 0 {
		t.Fatal("sequential map empty")
	}
	for _, workers := range []int{2, 4, 16, 64} {
		par := BuildMap("/index.html", html, res, BuildOptions{CrossOriginETag: xo, Concurrency: workers})
		if len(par) != len(seq) {
			t.Fatalf("concurrency %d: %d entries, want %d", workers, len(par), len(seq))
		}
		for p, want := range seq {
			if par[p] != want {
				t.Errorf("concurrency %d: %q = %v, want %v", workers, p, par[p], want)
			}
		}
	}
}

// cachingResolver claims to hold the paths held reports true for.
type cachingResolver struct {
	RefResolver
	held func(path string) bool
}

func (c cachingResolver) Cached(path string) bool { return c.held(path) }

// Property: a CachingResolver's held lookups run inline and the rest fan
// out, and the map is still exactly the sequential one, whichever paths are
// held and whatever the width.
func TestResolveRefsCachingResolverMatchesSequential(t *testing.T) {
	res, html, xo := deepSite()
	seq := BuildMap("/index.html", html, res, BuildOptions{CrossOriginETag: xo})
	for _, workers := range []int{1, 8} {
		for mod := 1; mod <= 3; mod++ {
			held := func(p string) bool { return len(p)%mod == 0 }
			got := ResolveRefsContext(context.Background(), ExtractPageRefs("/index.html", html), cachingResolver{extracting{res}, held}, BuildOptions{CrossOriginETag: xo, Concurrency: workers})
			if len(got) != len(seq) {
				t.Fatalf("concurrency %d, held len%%%d: %d entries, want %d", workers, mod, len(got), len(seq))
			}
			for p, want := range seq {
				if got[p] != want {
					t.Errorf("concurrency %d, held len%%%d: %q = %v, want %v", workers, mod, p, got[p], want)
				}
			}
		}
	}
}

// TestResolveRefsHeldLookupsStayInline: when the resolver holds every path,
// no lookup overlaps another whatever the fan-out width, and once the
// context is done none starts.
func TestResolveRefsHeldLookupsStayInline(t *testing.T) {
	var html string
	for i := 0; i < 16; i++ {
		html += fmt.Sprintf(`<img src="/i%02d.png">`, i)
	}
	slow := &slowResolver{delay: time.Millisecond}
	all := func(string) bool { return true }
	if m := ResolveRefsContext(context.Background(), ExtractPageRefs("/", html), cachingResolver{extracting{slow}, all}, BuildOptions{Concurrency: 16}); len(m) != 16 {
		t.Fatalf("map has %d entries", len(m))
	}
	if p := slow.peak.Load(); p != 1 {
		t.Fatalf("peak in-flight lookups = %d, want 1: held lookups must run inline", p)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancelling := &cancellingResolver{Resolver: slow, cancel: cancel}
	if m := ResolveRefsContext(ctx, ExtractPageRefs("/", html), cachingResolver{extracting{cancelling}, all}, BuildOptions{Concurrency: 16}); len(m) != 1 || cancelling.calls != 1 {
		t.Fatalf("the context was done after the first lookup, but %d ran and %d entries resolved", cancelling.calls, len(m))
	}
}

// cancellingResolver cancels its context on the first lookup.
type cancellingResolver struct {
	Resolver
	cancel func()
	calls  int
}

func (c *cancellingResolver) ETagFor(path string) (etag.Tag, bool) {
	c.calls++
	c.cancel()
	return c.Resolver.ETagFor(path)
}

// slowResolver serializes nothing and sleeps per lookup, to make the resolve
// fan-out observable in wall-clock time.
type slowResolver struct {
	delay    time.Duration
	inFlight atomic.Int64
	peak     atomic.Int64
}

func (s *slowResolver) ETagFor(path string) (etag.Tag, bool) {
	n := s.inFlight.Add(1)
	defer s.inFlight.Add(-1)
	for {
		p := s.peak.Load()
		if n <= p || s.peak.CompareAndSwap(p, n) {
			break
		}
	}
	time.Sleep(s.delay)
	return etag.ForVersion(path, 1), true
}

func (s *slowResolver) StylesheetBody(string) (string, bool) { return "", false }

func TestResolveRefsActuallyFansOut(t *testing.T) {
	const n = 16
	var html string
	for i := 0; i < n; i++ {
		html += fmt.Sprintf(`<img src="/i%02d.png">`, i)
	}
	res := &slowResolver{delay: 20 * time.Millisecond}
	start := time.Now()
	m := BuildMap("/", html, res, BuildOptions{Concurrency: n})
	elapsed := time.Since(start)
	if len(m) != n {
		t.Fatalf("map has %d entries", len(m))
	}
	if res.peak.Load() < 2 {
		t.Fatalf("peak in-flight lookups = %d, want concurrent resolution", res.peak.Load())
	}
	// Sequential cost is n*delay = 320ms; allow generous scheduling slack
	// while still proving overlap.
	if elapsed > time.Duration(n)*res.delay/2 {
		t.Fatalf("resolve took %v, sequential bound is %v", elapsed, time.Duration(n)*res.delay)
	}
}

// Property (race detector food): one shared resolver, many concurrent
// BuildMap calls with fan-out enabled — no data races, identical maps.
func TestResolveRefsConcurrentBuilders(t *testing.T) {
	res, html, xo := deepSite()
	want := BuildMap("/index.html", html, res, BuildOptions{CrossOriginETag: xo})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				m := BuildMap("/index.html", html, res, BuildOptions{CrossOriginETag: xo, Concurrency: 4})
				if len(m) != len(want) {
					t.Errorf("map size %d, want %d", len(m), len(want))
					return
				}
			}
		}()
	}
	wg.Wait()
}
