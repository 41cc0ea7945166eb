package catalyst

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"cachecatalyst/internal/vclock"
)

// pageSet is an inner handler whose pages each reference one image of their
// own and one they all share: /x.html references /x1.png and /shared.png.
// Images are untagged bodies naming their version, so bumping a version
// gives the image a new derived tag.
type pageSet struct {
	mu       sync.Mutex
	versions map[string]int
}

func newPageSet() *pageSet { return &pageSet{versions: map[string]int{}} }

func (s *pageSet) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if strings.HasSuffix(r.URL.Path, ".html") {
		w.Header().Set("Content-Type", "text/html")
		fmt.Fprintf(w, `<html><body><img src="/%c1.png"><img src="/shared.png"></body></html>`, r.URL.Path[1])
		return
	}
	s.mu.Lock()
	v := s.versions[r.URL.Path]
	s.mu.Unlock()
	w.Header().Set("Content-Type", "image/png")
	fmt.Fprintf(w, "%s v%d", r.URL.Path, v)
}

func (s *pageSet) bump(path string) {
	s.mu.Lock()
	s.versions[path]++
	s.mu.Unlock()
}

// assetTag is the tag the middleware derives for version v of path.
func assetTag(path string, v int) string {
	return TagForBytes([]byte(fmt.Sprintf("%s v%d", path, v))).String()
}

// slotHarness serves pages through a Middleware with Server-Timing on and
// reaches into its default state's probe cache. Its clock moves only when a
// test advances it.
type slotHarness struct {
	t   *testing.T
	h   http.Handler
	m   *middleware
	clk *vclock.Virtual
}

func newSlotHarness(t *testing.T, inner http.Handler, ex MapExchange) *slotHarness {
	clk := vclock.NewVirtual(vclock.Epoch)
	h := tuned(inner, MiddlewareOptions{ServerTiming: true, Exchange: ex}, withClock(clk))
	return &slotHarness{t: t, h: h, m: h.(*middleware), clk: clk}
}

// serve navigates to page and returns the decisions the response reported
// and its X-Etag-Config.
func (s *slotHarness) serve(page string) (timing, enc string) {
	s.t.Helper()
	rec := httptest.NewRecorder()
	s.h.ServeHTTP(rec, httptest.NewRequest("GET", page, nil))
	if rec.Code != http.StatusOK {
		s.t.Fatalf("%s answered %d", page, rec.Code)
	}
	return rec.Header().Get("Server-Timing"), rec.Header().Get(HeaderName)
}

// tag returns the tag enc maps path to.
func (s *slotHarness) tag(enc, path string) string {
	s.t.Helper()
	m, err := DecodeMap(enc)
	if err != nil {
		s.t.Fatal(err)
	}
	return m[path].String()
}

// expire ages the given probes out, as their probeTTL running out would,
// and no other.
func (s *slotHarness) expire(paths ...string) {
	s.t.Helper()
	for _, p := range paths {
		pr, ok := s.m.def.probes.Peek(p)
		if !ok {
			s.t.Fatalf("%s was never probed", p)
		}
		pr.expires = s.clk.Now()
		s.m.def.probes.Put(p, pr)
	}
}

// TestSlotReuseIsPerPage: a page's slotted map is reused while every probe
// its own evidence names is held, unexpired and unchanged, whatever other
// pages' probes do, and rebuilt when one of its own changes or expires.
func TestSlotReuseIsPerPage(t *testing.T) {
	site := newPageSet()
	s := newSlotHarness(t, site, nil)
	s.serve("/a.html")
	s.serve("/b.html")
	if st, _ := s.serve("/a.html"); !strings.Contains(st, "map-reused") {
		t.Fatalf("A's second serve decided %q, want map-reused", st)
	}

	// A subresource only B references changes, and B's re-probe lands it.
	site.bump("/b1.png")
	s.expire("/b1.png")
	if st, enc := s.serve("/b.html"); !strings.Contains(st, "map-built") || s.tag(enc, "/b1.png") != assetTag("/b1.png", 1) {
		t.Fatalf("B after /b1.png changed: decided %q, map %s", st, enc)
	}
	if st, _ := s.serve("/a.html"); !strings.Contains(st, "map-reused") {
		t.Fatalf("A after a probe only B names changed decided %q, want map-reused", st)
	}

	// One of A's own references changes. B's re-probe lands the new tag
	// while A's probe of the path is held and unexpired, so it is the
	// recorded answer, not the expiry, that fails A's evidence.
	site.bump("/shared.png")
	s.expire("/shared.png")
	s.serve("/b.html")
	if st, enc := s.serve("/a.html"); !strings.Contains(st, "map-built") || s.tag(enc, "/shared.png") != assetTag("/shared.png", 1) {
		t.Fatalf("A after /shared.png changed: decided %q, map %s", st, enc)
	}

	// Nothing changes, but A's probes expire: the next serve resolves, and
	// the one after reuses what it slotted.
	s.expire("/a1.png", "/shared.png")
	if st, _ := s.serve("/a.html"); !strings.Contains(st, "map-built") {
		t.Fatalf("A after its probes expired decided %q, want map-built", st)
	}
	if st, _ := s.serve("/a.html"); !strings.Contains(st, "map-reused") {
		t.Fatalf("A after re-probing decided %q, want map-reused", st)
	}
}

// stubExchange is a MapExchange that records what is published and, while
// answer is set, answers every lookup with it.
type stubExchange struct {
	mu        sync.Mutex
	published []announcement
	answer    string
}

type announcement struct {
	page, tag, enc string
	expires        int64
}

func (x *stubExchange) Lookup(_, _, _ string) (string, int64, bool) {
	x.mu.Lock()
	defer x.mu.Unlock()
	return x.answer, time.Now().Add(time.Hour).UnixNano(), x.answer != ""
}

func (x *stubExchange) Publish(_, page, tag, enc string, expires int64) {
	x.mu.Lock()
	defer x.mu.Unlock()
	x.published = append(x.published, announcement{page, tag, enc, expires})
}

func (x *stubExchange) announcements() []announcement {
	x.mu.Lock()
	defer x.mu.Unlock()
	return append([]announcement(nil), x.published...)
}

func (x *stubExchange) setAnswer(enc string) {
	x.mu.Lock()
	x.answer = enc
	x.mu.Unlock()
}

// TestExchangePublishesAndAdopts drives the middleware's half of the
// hot-map exchange against a stub: a local build is published once, with the
// earliest expiry among the probes its evidence names; an adopted encoding
// decorates its response and never enters the slot; and once the exchange
// stops answering, the page is built locally.
func TestExchangePublishesAndAdopts(t *testing.T) {
	ex := &stubExchange{}
	s := newSlotHarness(t, newPageSet(), ex)

	// B probes /shared.png a tick before A, so A's evidence names one probe
	// that expires before the one A fetched itself.
	s.serve("/b.html")
	s.clk.Advance(time.Nanosecond)
	_, enc := s.serve("/a.html")
	if st, _ := s.serve("/a.html"); !strings.Contains(st, "map-reused") {
		t.Fatalf("A's second serve decided %q, want map-reused", st)
	}
	pub := ex.announcements()
	if len(pub) != 2 {
		t.Fatalf("%d announcements after two builds and a reuse, want 2: %+v", len(pub), pub)
	}
	shared, _ := s.m.def.probes.Peek("/shared.png")
	own, _ := s.m.def.probes.Peek("/a1.png")
	if !shared.expires.Before(own.expires) {
		t.Fatalf("/shared.png expires %v, not before /a1.png's %v", shared.expires, own.expires)
	}
	ent, _ := s.m.def.renders.Peek("/a.html")
	want := announcement{"/a.html", ent.TagStr, enc, shared.expires.UnixNano()}
	if pub[1] != want {
		t.Fatalf("announced %+v, want %+v", pub[1], want)
	}

	// An adopted encoding decorates its response and stays out of the slot.
	const peer = `{"/c1.png":"\"from-peer\""}`
	ex.setAnswer(peer)
	if st, got := s.serve("/c.html"); !strings.Contains(st, "hotmap-adopt") || got != peer {
		t.Fatalf("with a peer encoding on offer: decided %q, served %s", st, got)
	}
	if ent, _ := s.m.def.renders.Peek("/c.html"); ent.slot.Load() != nil {
		t.Fatal("the adopted encoding entered the slot")
	}
	if n := s.m.metrics.HotMapHits.Load(); n != 1 {
		t.Fatalf("HotMapHits = %d, want 1", n)
	}

	// The exchange stops answering: C is built here, slotted and published.
	ex.setAnswer("")
	st, got := s.serve("/c.html")
	if !strings.Contains(st, "map-built") || s.tag(got, "/c1.png") != assetTag("/c1.png", 0) {
		t.Fatalf("with no peer encoding: decided %q, served %s", st, got)
	}
	if ent, _ := s.m.def.renders.Peek("/c.html"); ent.slot.Load() == nil {
		t.Fatal("the local build was not slotted")
	}
	if n := len(ex.announcements()); n != 3 {
		t.Fatalf("%d announcements, want 3", n)
	}
}
