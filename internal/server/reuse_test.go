package server_test

import (
	"context"
	"fmt"
	"maps"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"
	"time"

	"cachecatalyst/internal/core"
	"cachecatalyst/internal/decorate"
	"cachecatalyst/internal/etag"
	"cachecatalyst/internal/server"
	"cachecatalyst/internal/vclock"
	"cachecatalyst/internal/webgen"
)

// The resolved-map slot's contract is exactness: whatever the server ships
// in X-Etag-Config — resolved now or reused from an earlier request — is the
// bytes a from-scratch build over the content of that instant produces. The
// tests here hold it to that differentially, against core.BuildMap run
// through the test's own resolver, under every map option the server has and
// every value its test hook reaches (server.NewTuned).

// freshResolver is the reference Content→core.Resolver adapter: no memo, no
// log, nothing shared with the server under test.
type freshResolver struct{ c server.Content }

func (f freshResolver) ETagFor(p string) (etag.Tag, bool) {
	r, ok := f.c.Get(p)
	if !ok {
		return etag.Tag{}, false
	}
	return r.ETag, true
}

func (f freshResolver) StylesheetBody(p string) (string, bool) {
	r, ok := f.c.Get(p)
	if !ok || !strings.HasPrefix(r.ContentType, "text/css") {
		return "", false
	}
	return string(r.Body), true
}

// mapConfig is one point of the option space the reuse must be right for.
// max, when nonzero, cuts the map bound to max × boundUnit bytes, which
// these sites' maps overflow, so the shipped maps are trimmed.
type mapConfig struct {
	max, concurrency int
	cross, record    bool
}

// boundUnit is about one entry of these sites' maps, in encoded bytes.
const boundUnit = 64

func (c mapConfig) String() string {
	return fmt.Sprintf("max%d/conc%d/cross=%v/record=%v", c.max, c.concurrency, c.cross, c.record)
}

func eachMapConfig(t *testing.T, fn func(t *testing.T, cfg mapConfig)) {
	for _, max := range []int{0, 5} {
		for _, conc := range []int{1, 8} {
			for _, cross := range []bool{false, true} {
				for _, record := range []bool{false, true} {
					cfg := mapConfig{max, conc, cross, record}
					t.Run(cfg.String(), func(t *testing.T) { fn(t, cfg) })
				}
			}
		}
	}
}

const (
	extrasSession = "sess-extras"
	clients       = 4 // concurrent requests per step
)

// differ drives one server and checks every response against the reference.
type differ struct {
	t       *testing.T
	s       *server.Server
	content server.Content
	page    string
	opts    core.BuildOptions // reference options: the server's, sequential
	// bound is the server's map bound in bytes; trimmed counts the entries
	// it cut from the reference maps.
	bound, trimmed int
	// extras are the paths extrasSession's earlier loads of page requested;
	// nil with recording off.
	extras []string
	served int64 // HTML requests sent
}

func newDiffer(t *testing.T, content server.Content, page string, cfg mapConfig, cross func(string) (etag.Tag, bool), extras []string) *differ {
	opts := server.Options{Catalyst: true, Record: cfg.record}
	if cfg.cross {
		opts.CrossOriginETag = cross
	}
	bound := core.MaxEncodedMapBytes
	if cfg.max > 0 {
		bound = cfg.max * boundUnit
	}
	s := server.NewTuned(content, opts, cfg.concurrency, bound)
	// The reference resolves sequentially: the assembled map does not
	// depend on the fan-out width, and webgen sites tolerate concurrent
	// readers only once a sequential pass has materialized the instant.
	d := &differ{t: t, s: s, content: content, page: page, opts: core.BuildOptions{CrossOriginETag: opts.CrossOriginETag}, bound: bound}
	if cfg.record {
		d.extras = extras
		for _, p := range extras {
			s.Recorder().RecordFetch(extrasSession, "http://site.example"+page, p)
		}
	}
	return d
}

// want computes, from scratch, the header a session without extras and the
// extras session must receive right now.
func (d *differ) want() (plain, withExtras string) {
	res, ok := d.content.Get(d.page)
	if !ok {
		d.t.Fatalf("page %s missing", d.page)
	}
	m := core.BuildMap(d.page, string(res.Body), freshResolver{d.content}, d.opts)
	plain, dropped := decorate.EncodeMap(m, d.bound)
	d.trimmed += dropped
	m = maps.Clone(m)
	for _, p := range d.extras {
		if _, covered := m[p]; covered {
			continue
		}
		if r, ok := d.content.Get(p); ok {
			m[p] = r.ETag
		}
	}
	withExtras, _ = decorate.EncodeMap(m, d.bound)
	return plain, withExtras
}

// check sends `clients` concurrent navigations and requires each one's map
// to equal the reference for its session. It returns how many resolves the
// step cost the server.
func (d *differ) check(step string) (built int64) {
	d.t.Helper()
	plain, withExtras := d.want()
	before := d.s.Metrics.MapsBuilt.Load()
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		want := plain
		req := httptest.NewRequest("GET", d.page, nil)
		if d.extras != nil && i%2 == 1 {
			want = withExtras
			req.AddCookie(&http.Cookie{Name: server.SessionCookie, Value: extrasSession})
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			rec := httptest.NewRecorder()
			d.s.ServeHTTP(rec, req)
			got := rec.Header().Get(core.HeaderName)
			if _, err := core.DecodeMap(got); err != nil || got == "" {
				d.t.Errorf("%s: undecodable map %q: %v", step, got, err)
			}
			if got != want {
				d.t.Errorf("%s: served map differs from a fresh build\n got %s\nwant %s", step, got, want)
			}
		}()
	}
	wg.Wait()
	d.served += clients
	return d.s.Metrics.MapsBuilt.Load() - before
}

// finish checks the counter identity: every HTML response was a build, a
// reuse or a shed, and the reuse was actually exercised.
func (d *differ) finish() {
	d.t.Helper()
	m := &d.s.Metrics
	built, reused, shed := m.MapsBuilt.Load(), m.MapsReused.Load(), m.MapSheds.Load()
	if built+reused+shed != d.served {
		d.t.Errorf("maps_built %d + maps_reused %d + map_sheds %d != %d HTML requests", built, reused, shed, d.served)
	}
	if reused == 0 {
		d.t.Error("the schedule never reused a map")
	}
	if d.bound < core.MaxEncodedMapBytes && d.trimmed == 0 {
		d.t.Errorf("a %d-byte bound never trimmed a map", d.bound)
	}
}

// memSite is a hand-built site with every construct the resolve follows: a
// page with four stylesheets (url()s, an @import chain two deep),
// fingerprinted ?v= references, third-party references and one reference
// whose asset has not been deployed yet.
type memSite struct {
	c         *server.MemContent
	rng       *rand.Rand
	orig      map[string]string // deployable leaves → their first body
	leaves    []string
	gone      map[string]bool
	rev       int
	importB   bool // a.css imports chainB.css instead of chain1.css
	extraURL  bool // a.css carries a second url()
	extraImg  bool // the page carries one more <img>
	crossTags map[string]etag.Tag
}

const memPage = "/index.html"

func newMemSite(seed int64) *memSite {
	m := &memSite{
		c:    server.NewMemContent(),
		rng:  rand.New(rand.NewSource(seed)),
		orig: make(map[string]string),
		gone: make(map[string]bool),
		crossTags: map[string]etag.Tag{
			"https://cdn.example/lib.js":   {Opaque: "lib-1"},
			"https://cdn.example/hero.jpg": {Opaque: "hero-1"},
		},
	}
	add := func(p, body string) {
		m.orig[p] = body
		m.leaves = append(m.leaves, p)
		m.c.SetBody(p, body, server.CachePolicy{})
	}
	add("/css/b.css", ".b { background: url(/img/b1.png) } .b2 { background: url('/img/shared.png') }")
	add("/css/c.css", "@font-face { src: url(/font/f.woff2) }")
	add("/css/d.css", ".d { color: red }")
	add("/css/chain1.css", "@import \"/css/chain2.css\";\n.c1 { background: url(/img/c1.png) }")
	add("/css/chain2.css", ".c2 { background: url(/img/c2.png) }")
	add("/css/chainB.css", ".cb { background: url(/img/cb.png) } .s { background: url(/img/shared.png) }")
	add("/js/app.js?v=3", "app")
	add("/js/vendor.js?v=9", "vendor")
	add("/js/lazy.js", "lazy") // referenced by no document: recorded extras only
	for _, p := range []string{"/img/a1.png", "/img/a2.png", "/img/b1.png", "/img/shared.png", "/img/c1.png",
		"/img/c2.png", "/img/cb.png", "/font/f.woff2", "/img/i0.png", "/img/i1.png", "/img/i2.png", "/img/more.png"} {
		add(p, "bytes of "+p)
	}
	// Referenced from the start, deployed by some later step.
	m.orig["/img/late.png"] = "late"
	m.leaves = append(m.leaves, "/img/late.png")
	m.gone["/img/late.png"] = true
	m.writeCSS()
	m.writePage()
	return m
}

func (m *memSite) writeCSS() {
	imp := "/css/chain1.css"
	if m.importB {
		imp = "/css/chainB.css"
	}
	body := fmt.Sprintf("@import %q;\n.a { background: url(/img/a1.png) }\n", imp)
	if m.extraURL {
		body += ".a2 { background: url(/img/a2.png) }\n"
	}
	m.c.SetBody("/css/a.css", body, server.CachePolicy{})
}

func (m *memSite) writePage() {
	var b strings.Builder
	b.WriteString("<html><head>")
	for _, s := range []string{"a", "b", "c", "d"} {
		fmt.Fprintf(&b, `<link rel="stylesheet" href="/css/%s.css">`, s)
	}
	b.WriteString(`<script src="/js/app.js?v=3"></script><script src="/js/vendor.js?v=9"></script>`)
	b.WriteString(`<script src="https://cdn.example/lib.js"></script></head><body>`)
	b.WriteString(`<img src="/img/i0.png"><img src="/img/i1.png"><img src="/img/i2.png">`)
	b.WriteString(`<img src="/img/late.png"><img src="https://cdn.example/hero.jpg">`)
	if m.extraImg {
		b.WriteString(`<img src="/img/more.png">`)
	}
	b.WriteString("</body></html>")
	m.c.SetBody(memPage, b.String(), server.CachePolicy{NoCache: true})
}

func (m *memSite) cross(absURL string) (etag.Tag, bool) {
	t, ok := m.crossTags[absURL]
	return t, ok
}

// mutate applies one random content change and names it; "none" leaves the
// site alone, after which the server must not resolve.
func (m *memSite) mutate() string {
	m.rev++
	leaf := m.leaves[m.rng.Intn(len(m.leaves))]
	switch m.rng.Intn(8) {
	case 0:
		if m.gone[leaf] {
			return "none"
		}
		m.c.SetBody(leaf, fmt.Sprintf("%s /* rev %d */", m.orig[leaf], m.rev), server.CachePolicy{})
		return "set " + leaf
	case 1:
		if m.gone[leaf] {
			return "none"
		}
		m.c.Delete(leaf)
		m.gone[leaf] = true
		return "delete " + leaf
	case 2: // 404 → 200: the first undeployed leaf at or after the drawn one
		for _, p := range m.leaves {
			if m.gone[p] && p >= leaf {
				m.c.SetBody(p, m.orig[p], server.CachePolicy{})
				delete(m.gone, p)
				return "deploy " + p
			}
		}
		return "none"
	case 3:
		m.extraURL = !m.extraURL
		m.writeCSS()
		return "stylesheet url() toggled"
	case 4:
		m.importB = !m.importB
		m.writeCSS()
		return "@import retargeted"
	case 5:
		if m.rng.Intn(2) == 0 {
			delete(m.crossTags, "https://cdn.example/lib.js")
			return "third-party gone"
		}
		m.crossTags["https://cdn.example/lib.js"] = etag.Tag{Opaque: fmt.Sprint("lib-", m.rev)}
		return "third-party set"
	case 6:
		m.extraImg = !m.extraImg
		m.writePage()
		return "page edited"
	}
	return "none"
}

func TestReusedMapEqualsFreshBuildMem(t *testing.T) {
	eachMapConfig(t, func(t *testing.T, cfg mapConfig) {
		site := newMemSite(20240913)
		// One extra nothing references, one the map already covers, one
		// that does not exist.
		d := newDiffer(t, site.c, memPage, cfg, site.cross, []string{"/js/lazy.js", "/img/i0.png", "/js/ghost.js"})
		d.check("cold")
		for i := 0; i < 80 && !t.Failed(); i++ {
			what := site.mutate()
			built := d.check(fmt.Sprintf("step %d (%s)", i, what))
			if what == "none" && built != 0 {
				t.Errorf("step %d: %d resolves over unchanged content", i, built)
			}
		}
		d.finish()
	})
}

// TestReusedMapEqualsFreshBuildWebgen walks a generated site — fingerprinted
// assets, late-deployed images, a CDN origin — along its own mutation
// schedule on a virtual clock.
func TestReusedMapEqualsFreshBuildWebgen(t *testing.T) {
	eachMapConfig(t, func(t *testing.T, cfg mapConfig) {
		clock := vclock.NewVirtual(vclock.Epoch)
		site := webgen.GenerateOne(webgen.Params{Seed: 7, FingerprintFrac: 0.4, BrokenFrac: 0.3}, 0, clock)
		cdn := site.CDNContent()
		cross := func(absURL string) (etag.Tag, bool) {
			u, err := url.Parse(absURL)
			if err != nil || u.Host != site.CDNHost {
				return etag.Tag{}, false
			}
			r, ok := cdn.Get(u.RequestURI())
			if !ok {
				return etag.Tag{}, false
			}
			return r.ETag, true
		}
		paths := site.Content().Paths()
		extras := []string{paths[len(paths)/2], paths[len(paths)-1], "/ghost.js"}
		d := newDiffer(t, site.Content(), webgen.PagePath, cfg, cross, extras)
		d.check("cold")
		day := 24 * time.Hour
		for i, step := range []time.Duration{time.Minute, 0, time.Hour, 13 * time.Hour, 13 * time.Hour, 2 * day,
			0, 5 * day, 10 * day, 10 * day, 30 * day, 0} {
			clock.Advance(step)
			built := d.check(fmt.Sprintf("step %d (+%v)", i, step))
			if step == 0 && built != 0 {
				t.Errorf("step %d: %d resolves with the clock standing still", i, built)
			}
		}
		d.finish()
	})
}

// cancellingContent cancels a context the first time a chosen path is
// looked up: a client that disconnects in the middle of a resolve.
type cancellingContent struct {
	server.Content
	on     string
	cancel context.CancelFunc
	once   sync.Once
}

func (c *cancellingContent) Get(p string) (*server.Resource, bool) {
	if p == c.on {
		c.once.Do(c.cancel)
	}
	return c.Content.Get(p)
}

// TestDoneContextNeverPopulatesSlot: a map assembled under a cancelled
// request is a prefix of the real one, so it must not be what the next
// request reuses; a done request may, however, reuse a verified map.
func TestDoneContextNeverPopulatesSlot(t *testing.T) {
	site := newMemSite(1)
	ctx, cancel := context.WithCancel(context.Background())
	content := &cancellingContent{Content: site.c, on: "/css/b.css", cancel: cancel}
	s := server.New(content, server.Options{Catalyst: true})
	serve := func(ctx context.Context) core.ETagMap {
		t.Helper()
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest("GET", memPage, nil).WithContext(ctx))
		m, err := core.DecodeMap(rec.Header().Get(core.HeaderName))
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	page, _ := site.c.Get(memPage)
	full := core.BuildMap(memPage, string(page.Body), freshResolver{site.c}, core.BuildOptions{})

	if partial := serve(ctx); len(partial) >= len(full) {
		t.Fatalf("cancelled resolve still assembled %d of %d entries", len(partial), len(full))
	}
	if got := serve(context.Background()); !maps.Equal(got, full) {
		t.Errorf("request after a cancelled one got %d entries, want the full %d: the partial map was kept", len(got), len(full))
	}
	if built, reused := s.Metrics.MapsBuilt.Load(), s.Metrics.MapsReused.Load(); built != 2 || reused != 0 {
		t.Errorf("built %d reused %d, want 2 and 0", built, reused)
	}
	// The slot now holds a complete map; a request that is already done
	// reuses it rather than resolving a partial one.
	if got := serve(ctx); !maps.Equal(got, full) {
		t.Errorf("done request got %d entries, want the verified %d", len(got), len(full))
	}
	if reused := s.Metrics.MapsReused.Load(); reused != 1 {
		t.Errorf("reused %d, want 1", reused)
	}

	// An exhausted budget is a done context like any other: every request
	// resolves, none populates the slot.
	sb := server.New(site.c, server.Options{Catalyst: true, RequestBudget: time.Nanosecond})
	for i := 0; i < 3; i++ {
		sb.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", memPage, nil))
	}
	if built, reused := sb.Metrics.MapsBuilt.Load(), sb.Metrics.MapsReused.Load(); built != 3 || reused != 0 {
		t.Errorf("exhausted budget: built %d reused %d, want 3 and 0", built, reused)
	}
}
