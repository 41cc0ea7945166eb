package catalyst

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"cachecatalyst/internal/cachestore"
)

// churnSite is an inner handler with the benchmark's page_churn shape: pages
// of 40 references, one in ten a 6 KB stylesheet, the rest small, every
// subresource carrying an Etag and honouring If-None-Match. subBytes counts
// the subresource body bytes it wrote.
type churnSite struct {
	pages    int
	sheet    string
	subBytes atomic.Int64
}

const churnRefsPerPage = 40

func (s *churnSite) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if strings.HasSuffix(r.URL.Path, ".html") {
		var b strings.Builder
		b.WriteString("<html><head>")
		for i := 0; i < churnRefsPerPage; i++ {
			if i%10 == 0 {
				fmt.Fprintf(&b, `<link rel="stylesheet" href="%s/s%d.css">`, strings.TrimSuffix(r.URL.Path, ".html"), i)
			} else {
				fmt.Fprintf(&b, `<img src="%s/i%d.png">`, strings.TrimSuffix(r.URL.Path, ".html"), i)
			}
		}
		b.WriteString("</head><body></body></html>")
		w.Header().Set("Content-Type", "text/html")
		_, _ = io.WriteString(w, b.String())
		return
	}
	tag := `"v1` + r.URL.Path + `"`
	w.Header().Set("Etag", tag)
	if r.Header.Get("If-None-Match") == tag {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	body := "small"
	if strings.HasSuffix(r.URL.Path, ".css") {
		w.Header().Set("Content-Type", "text/css")
		body = s.sheet
	}
	n, _ := io.WriteString(w, body)
	s.subBytes.Add(int64(n))
}

// navigateAll requests every page once.
func (s *churnSite) navigateAll(t *testing.T, h http.Handler) {
	t.Helper()
	for p := 0; p < s.pages; p++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", fmt.Sprintf("/p%d.html", p), nil))
		if m, err := DecodeMap(rec.Header().Get(HeaderName)); err != nil || len(m) != churnRefsPerPage {
			t.Fatalf("page %d: map of %d entries (%v), want %d", p, len(m), err, churnRefsPerPage)
		}
	}
}

// TestProbeWorkingSetSurvivesItsTTL is the reason the default probe budget
// is what it is. A probe entry exists so that the next probe of its path can
// be a revalidation, which it can only be if the entry is still cached when
// its TTL runs out. The site has page_churn's probe working set — 6 000 paths,
// 600 of them 6 KB stylesheets, ≈ 5.1 MB as the cache charges it — and the
// second pass over it, one TTL later, must be all 304s: no eviction, no
// subresource body crossing the handler's writer. Under a budget smaller
// than the working set the same traffic thrashes, which is what the second
// subtest holds this test's teeth to.
//
// The TTL is long against one navigation (tens of milliseconds under -race
// on a loaded machine), so no probe expires between the resolver's ETagFor
// and StylesheetBody of the same page; the default budget evicts nothing, so
// its first pass fetches exactly once per path. Under the thrash budget a
// stylesheet's probe can be evicted between those two lookups and fetched
// again, so that first pass is bounded below only.
func TestProbeWorkingSetSurvivesItsTTL(t *testing.T) {
	const ttl = 500 * time.Millisecond
	secondPass := func(t *testing.T, maxProbeEntries int) (revalidated, fetched, swept, bodyBytes int64) {
		site := &churnSite{pages: 150, sheet: "/*" + strings.Repeat("x", 6<<10-4) + "*/"}
		metrics := &MiddlewareMetrics{}
		h := Middleware(site, MiddlewareOptions{ProbeTTL: ttl, MaxProbeEntries: maxProbeEntries, Metrics: metrics})
		site.navigateAll(t, h)
		got, want := metrics.ProbeFetched.Load(), int64(site.pages*churnRefsPerPage)
		if got < want || maxProbeEntries == 0 && got != want {
			t.Fatalf("first pass fetched %d probes, want one per path (%d)", got, want)
		}
		time.Sleep(ttl + ttl/2) // every probe of the first pass expires
		fetched, bodyBytes = metrics.ProbeFetched.Load(), site.subBytes.Load()
		site.navigateAll(t, h)
		probes := h.(*middleware).def.probes
		if err := probes.Audit(); err != nil {
			t.Errorf("probe cache accounting drifted: %v", err)
		}
		return metrics.ProbeRevalidated.Load(), metrics.ProbeFetched.Load() - fetched,
			probes.Counters().Evictions, site.subBytes.Load() - bodyBytes
	}

	t.Run("default budget", func(t *testing.T) {
		revalidated, fetched, swept, bodyBytes := secondPass(t, 0)
		t.Logf("second pass: %d revalidated, %d fetched, %d swept, %d subresource body bytes", revalidated, fetched, swept, bodyBytes)
		if revalidated*10 < (revalidated+fetched)*9 {
			t.Errorf("%d of %d re-probes were revalidations, want at least nine in ten", revalidated, revalidated+fetched)
		}
		if swept != 0 {
			t.Errorf("%d probes evicted: the working set does not fit the default budget", swept)
		}
		if bodyBytes != 0 {
			t.Errorf("handler wrote %d body bytes for unchanged subresources, want 0", bodyBytes)
		}
	})
	t.Run("512 entries thrash", func(t *testing.T) {
		revalidated, fetched, swept, bodyBytes := secondPass(t, 512)
		t.Logf("second pass: %d revalidated, %d fetched, %d swept, %d subresource body bytes", revalidated, fetched, swept, bodyBytes)
		if swept < 1000 || revalidated*2 >= revalidated+fetched {
			t.Errorf("%d swept, %d of %d revalidated: a budget far under the working set should thrash — the test above proves nothing", swept, revalidated, revalidated+fetched)
		}
	})
}

// TestResidentRendersAreCharged drives several times MaxRenderBytes of
// distinct renders through the middleware — many pages, then many versions
// of one page — and then walks the render cache: it stays within its budget,
// and the render bodies reachable from it, counted once each, are covered by
// what it was charged — which a store keeping a second copy of each page, or
// pinning evicted renders at no charge, is not.
func TestResidentRendersAreCharged(t *testing.T) {
	const budget, pageBytes, pages = 256 << 10, 8 << 10, 120
	var version atomic.Int64
	inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/html")
		fmt.Fprintf(w, "<html><head><title>%s v%d</title></head><body>%s</body></html>", r.URL.Path, version.Load(), strings.Repeat("p", pageBytes))
	})
	h := Middleware(inner, MiddlewareOptions{MaxRenderBytes: budget})
	m := h.(*middleware)
	get := func(p int) {
		h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", fmt.Sprintf("/page/%d", p), nil))
	}
	for pass := 0; pass < 2; pass++ {
		for p := 0; p < pages; p++ {
			get(p)
		}
		version.Add(1)
	}
	for v := 0; v < pages; v++ {
		get(0)
		version.Add(1)
	}
	if driven := int64(3 * pages * pageBytes); driven < 3*budget {
		t.Fatalf("drove %d bytes of renders, want at least 3 × %d", driven, budget)
	}

	seen := map[*renderEntry]bool{}
	var reachable int64
	visit := func(e *renderEntry) {
		if !seen[e] {
			seen[e] = true
			reachable += int64(len(e.Body))
		}
	}
	walk(t, "renders", m.def.renders, budget, visit)
	charged, evicted := m.def.renders.Bytes(), m.def.renders.Counters().Evictions
	t.Logf("%d renders reachable, %d body bytes; charged %d", len(seen), reachable, charged)
	if len(seen) == 0 || evicted == 0 {
		t.Fatalf("%d renders resident, %d evicted: the budget was never under pressure", len(seen), evicted)
	}
	if reachable > charged {
		t.Errorf("%d render body bytes are resident but only %d are charged", reachable, charged)
	}
}

// walk audits one store, holds it to its budget and visits every resident
// value.
func walk[V any](t *testing.T, name string, store *cachestore.Store[V], budget int64, visit func(V)) {
	t.Helper()
	if err := store.Audit(); err != nil {
		t.Errorf("%s: %v", name, err)
	}
	if store.Bytes() > budget {
		t.Errorf("%s holds %d bytes, budget %d", name, store.Bytes(), budget)
	}
	for _, k := range store.Keys() {
		if v, ok := store.Peek(k); ok {
			visit(v)
		}
	}
}
