package catalyst_test

import (
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"testing"

	"cachecatalyst/catalyst"
	"cachecatalyst/internal/vclock"
)

// personality is how the timeline site treats validators — the behaviours of
// real inner handlers a revalidating probe has to be exact against.
type personality int

const (
	honours     personality = iota // Etag on everything, 304 to a matching If-None-Match
	ignores                        // Etag on everything, If-None-Match ignored: always 200
	tagless                        // no Etag at all: the middleware derives tags from bodies
	weakTags                       // W/"…" tags, 304 only to the byte-identical weak tag
	lying304                       // 304 to every conditional request, naming the current tag
	unsolicited                    // honours, but one image answers 304 to everything
	// The page-only personalities (page_revalidate_test.go): honours, and the
	// page's every 200 carries a fresh Set-Cookie, or Cache-Control: private.
	setsCookie
	private
)

var personalities = map[personality]string{
	honours: "honours", ignores: "ignores", tagless: "tagless",
	weakTags: "weak", lying304: "lying304", unsolicited: "unsolicited304",
}

// brokenPath is the resource the unsolicited personality answers 304 for
// whether or not it was asked conditionally.
const brokenPath = "/img/i00.png"

type asset struct {
	version  int
	gone     bool
	imports  []string // stylesheets: @import targets
	children []string // stylesheets: url() targets
}

// probeSeen is one request of the middleware under test for a subresource.
type probeSeen struct {
	conditional bool
	lied        bool // answered 304 naming a tag other than the one asked about
}

// timelineSite is an inner handler owning a version timeline: a page, four
// stylesheets (url() children out of a shared pool, one @import chain) and
// thirty scripts and images, each of which the test bumps, deletes, redeploys
// or edits between navigations. While observing is set it also keeps a record
// of what the middleware under test asked and what that cost.
type timelineSite struct {
	mu          sync.Mutex
	p           personality
	pageVersion int
	optionalRef bool     // the page references /img/optional.png
	refs        []string // the page's fixed references, in document order
	sheets      []string // the four page stylesheets (edit targets)
	bgPool      []string // what a stylesheet edit adds or drops
	mutable     []string // bump/delete/redeploy targets, sorted
	assets      map[string]*asset

	observing bool
	sawINM    bool                   // any observed request carried If-None-Match
	held      map[string]int         // version the middleware last received in a 200
	wasted    int                    // body bytes written for a version the middleware held
	seen      map[string][]probeSeen // this step's observed requests, the page's under "/"
	cookie    string                 // the Set-Cookie of the page's latest 200 (setsCookie)
	cookies   int
}

func newTimelineSite(p personality) *timelineSite {
	s := &timelineSite{p: p, assets: make(map[string]*asset), held: make(map[string]int), seen: make(map[string][]probeSeen)}
	add := func(path string) string {
		s.assets[path] = &asset{}
		return path
	}
	for i := 0; i < 6; i++ {
		s.bgPool = append(s.bgPool, add(fmt.Sprintf("/img/bg%d.png", i)))
	}
	for i := 0; i < 4; i++ {
		sheet := add(fmt.Sprintf("/css/s%d.css", i))
		s.assets[sheet].children = []string{s.bgPool[i]}
		s.sheets = append(s.sheets, sheet)
	}
	// The @import chain: s0 → base → reset, each with a child of its own.
	s.assets[s.sheets[0]].imports = []string{add("/css/base.css")}
	s.assets["/css/base.css"].imports = []string{add("/css/reset.css")}
	s.assets["/css/base.css"].children = []string{s.bgPool[4]}
	s.assets["/css/reset.css"].children = []string{s.bgPool[5]}
	s.refs = append(s.refs, s.sheets...)
	for i := 0; i < 12; i++ {
		s.refs = append(s.refs, add(fmt.Sprintf("/js/a%02d.js", i)))
	}
	for i := 0; i < 18; i++ {
		s.refs = append(s.refs, add(fmt.Sprintf("/img/i%02d.png", i)))
	}
	add("/img/optional.png")
	for path := range s.assets {
		s.mutable = append(s.mutable, path)
	}
	sort.Strings(s.mutable)
	return s
}

func (s *timelineSite) pageBody() string {
	var b strings.Builder
	fmt.Fprintf(&b, "<html><head><title>v%d</title>", s.pageVersion)
	for _, ref := range s.refs {
		switch {
		case strings.HasSuffix(ref, ".css"):
			fmt.Fprintf(&b, `<link rel="stylesheet" href="%s">`, ref)
		case strings.HasSuffix(ref, ".js"):
			fmt.Fprintf(&b, `<script src="%s"></script>`, ref)
		default:
			fmt.Fprintf(&b, `<img src="%s">`, ref)
		}
	}
	if s.optionalRef {
		b.WriteString(`<img src="/img/optional.png">`)
	}
	b.WriteString("</head><body>timeline</body></html>")
	return b.String()
}

func (s *timelineSite) assetBody(path string, a *asset) string {
	var b strings.Builder
	for _, imp := range a.imports {
		fmt.Fprintf(&b, "@import %q;\n", imp)
	}
	fmt.Fprintf(&b, "/* %s v%d */\n", path, a.version)
	for i, child := range a.children {
		fmt.Fprintf(&b, ".c%d { background: url(%s) }\n", i, child)
	}
	b.WriteString(strings.Repeat("x", 300))
	return b.String()
}

func (s *timelineSite) tag(path string, a *asset) string {
	tag := fmt.Sprintf(`"%s-v%d"`, strings.Trim(path, "/"), a.version)
	if s.p == weakTags {
		tag = "W/" + tag
	}
	return tag
}

func (s *timelineSite) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	defer s.mu.Unlock()
	path, inm := r.URL.Path, r.Header.Get("If-None-Match")
	if s.observing && inm != "" {
		s.sawINM = true
	}
	a := s.assets[path]
	if path == "/" {
		a = &asset{version: s.pageVersion}
	} else if a == nil || a.gone {
		if s.observing {
			delete(s.held, path)
			s.seen[path] = append(s.seen[path], probeSeen{conditional: inm != ""})
		}
		http.NotFound(w, r)
		return
	}
	tag := s.tag(path, a)
	if s.p != tagless {
		w.Header().Set("Etag", tag)
	}
	notModified := false
	switch s.p {
	case honours, weakTags, setsCookie, private:
		notModified = inm == tag
	case lying304:
		notModified = inm != ""
	case unsolicited:
		notModified = inm == tag || path == brokenPath
	}
	if s.observing {
		s.seen[path] = append(s.seen[path], probeSeen{conditional: inm != "", lied: notModified && inm != "" && inm != tag})
	}
	if notModified {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	var body string
	switch {
	case path == "/":
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		switch s.p {
		case setsCookie:
			s.cookies++
			s.cookie = fmt.Sprintf("visit=%d", s.cookies)
			w.Header().Set("Set-Cookie", s.cookie)
		case private:
			w.Header().Set("Cache-Control", "private")
		}
		body = s.pageBody()
	case strings.HasSuffix(path, ".css"):
		w.Header().Set("Content-Type", "text/css; charset=utf-8")
		fallthrough
	default:
		body = s.assetBody(path, a)
	}
	if s.observing {
		if v, ok := s.held[path]; ok && v == a.version {
			s.wasted += len(body)
		}
		s.held[path] = a.version
	}
	fmt.Fprint(w, body)
}

// mutate applies one step of the schedule: the kind every step index owes
// (so each kind runs whatever the seed), then one more drawn at random.
func (s *timelineSite) mutate(rng *rand.Rand, step int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, kind := range []int{step % 5, rng.Intn(5)} {
		path := s.mutable[rng.Intn(len(s.mutable))]
		a := s.assets[path]
		switch kind {
		case 0: // bump
			a.version++
		case 1: // delete
			a.gone = true
		case 2: // redeploy whatever is gone, as new content
			for _, p := range s.mutable {
				if g := s.assets[p]; g.gone {
					g.gone = false
					g.version++
				}
			}
		case 3: // a stylesheet edit adds or drops a url()
			sheet := s.assets[s.sheets[rng.Intn(len(s.sheets))]]
			child := s.bgPool[rng.Intn(len(s.bgPool))]
			kept := sheet.children[:0:0]
			for _, c := range sheet.children {
				if c != child {
					kept = append(kept, c)
				}
			}
			if len(kept) == len(sheet.children) {
				kept = append(kept, child)
			}
			sheet.children = kept
			sheet.version++
		case 4: // a page edit, adding or dropping a reference
			s.pageVersion++
			s.optionalRef = !s.optionalRef
		}
	}
}

func (s *timelineSite) observe(on bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.observing = on
	if on {
		clear(s.seen)
	}
}

// navigate serves the page once and returns the X-Etag-Config it carried.
func navigate(t *testing.T, h http.Handler) string {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "http://site.test/", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("navigation answered %d", rec.Code)
	}
	return rec.Header().Get(catalyst.HeaderName)
}

// TestRevalidatedProbesAreExact is the differential test of probe
// revalidation: one middleware lives through the whole timeline, re-probing
// with whatever its probe cache holds, and after every step the map it
// serves must be the map a middleware that has never seen the site — every
// probe of which is an unconditional GET — builds from the same handler.
func TestRevalidatedProbesAreExact(t *testing.T) {
	for p, name := range personalities {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			runTimeline(t, p, 0)
		})
	}
	// A probe cache smaller than the site evicts entries between steps; an
	// evicted path is probed unconditionally and the map still converges.
	t.Run("evicting", func(t *testing.T) {
		t.Parallel()
		runTimeline(t, honours, 32)
	})
}

func runTimeline(t *testing.T, p personality, maxProbeEntries int) {
	const steps = 16
	site := newTimelineSite(p)
	rng := rand.New(rand.NewSource(int64(p) + 1))
	// The breaker stays on and counting, but each step outlasts its
	// cooldown as well as every probe's trust: a redeployed path must be
	// back in the map as soon as the fresh crawl sees it.
	clk := vclock.NewVirtual(vclock.Epoch)
	subject, metrics := catalyst.TimelineMiddleware(site, clk, maxProbeEntries)

	for step := 0; step <= steps; step++ {
		site.observe(true)
		got := navigate(t, subject)
		site.observe(false)
		want := navigate(t, catalyst.Middleware(site, catalyst.MiddlewareOptions{}))
		if got != want {
			t.Fatalf("step %d: served map differs from a fresh crawl\n%s", step, diffMaps(t, got, want))
		}
		if m, _ := catalyst.DecodeMap(got); step == 0 && len(m) < 40 {
			t.Fatalf("step 0: map has %d entries, want the whole site: %s", len(m), got)
		}
		if p == unsolicited && strings.Contains(got, brokenPath) {
			t.Fatalf("step %d: %s answers 304 to an unconditional GET and is in the map: %s", step, brokenPath, got)
		}
		checkLies(t, step, site.seen)
		site.mutate(rng, step)
		clk.Advance(catalyst.TimelineStep)
	}

	revalidated, fetched := metrics.ProbeRevalidated.Load(), metrics.ProbeFetched.Load()
	switch p {
	case honours, weakTags, unsolicited:
		if maxProbeEntries == 0 && revalidated <= fetched {
			t.Errorf("ProbeRevalidated = %d, ProbeFetched = %d: most re-probes of a mostly unchanged site should be 304s", revalidated, fetched)
		}
	case ignores, tagless:
		if revalidated != 0 {
			t.Errorf("ProbeRevalidated = %d against a handler that never answers 304", revalidated)
		}
	}
	if p == tagless && site.sawINM {
		t.Error("a probe carried If-None-Match to a handler that never issued a tag: derived tags must not be sent")
	}
	if p != tagless && maxProbeEntries == 0 && !site.sawINM {
		t.Error("no probe was ever conditional")
	}
	if p == honours && maxProbeEntries == 0 && site.wasted != 0 {
		t.Errorf("the handler wrote %d body bytes for versions the middleware already held", site.wasted)
	}
	if p == unsolicited && metrics.BreakerTrips.Load() == 0 {
		t.Error("an unsolicited 304 is a failed probe, but the path's breaker never tripped")
	}
	if p == lying304 && revalidated == 0 {
		t.Error("a 304 naming the tag that was sent was never believed")
	}
	if maxProbeEntries > 0 && catalyst.ProbeEvictions(subject) == 0 {
		t.Error("the evicting run evicted nothing")
	}
}

// checkLies holds one navigation's requests to the rule that a 304 naming
// another tag is answered by exactly one unconditional re-fetch: the request
// after a lie is unconditional, and a path is lied about at most once.
func checkLies(t *testing.T, step int, seen map[string][]probeSeen) {
	t.Helper()
	for path, reqs := range seen {
		lies := 0
		for i, req := range reqs {
			if !req.lied {
				continue
			}
			lies++
			if i+1 == len(reqs) || reqs[i+1].conditional {
				t.Fatalf("step %d: %s: a 304 for a different tag was not followed by an unconditional re-fetch: %+v", step, path, reqs)
			}
		}
		if lies > 1 {
			t.Fatalf("step %d: %s: re-fetched after a mismatched 304 %d times in one navigation: %+v", step, path, lies, reqs)
		}
	}
}

// diffMaps renders the entries two encoded maps disagree on.
func diffMaps(t *testing.T, got, want string) string {
	t.Helper()
	g, err := catalyst.DecodeMap(got)
	if err != nil {
		t.Fatalf("served map does not decode: %v: %s", err, got)
	}
	w, err := catalyst.DecodeMap(want)
	if err != nil {
		t.Fatalf("fresh map does not decode: %v: %s", err, want)
	}
	var b strings.Builder
	for path, tag := range w {
		if gt, ok := g[path]; !ok {
			fmt.Fprintf(&b, "  %s: missing, fresh crawl has %s\n", path, tag)
		} else if gt != tag {
			fmt.Fprintf(&b, "  %s: served %s, fresh crawl has %s\n", path, gt, tag)
		}
	}
	for path, tag := range g {
		if _, ok := w[path]; !ok {
			fmt.Fprintf(&b, "  %s: served %s, absent from the fresh crawl\n", path, tag)
		}
	}
	return b.String()
}
