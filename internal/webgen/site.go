package webgen

import (
	"encoding/binary"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"cachecatalyst/internal/etag"
	"cachecatalyst/internal/htmlparse"
	"cachecatalyst/internal/jsexec"
	"cachecatalyst/internal/server"
	"cachecatalyst/internal/vclock"
)

// PagePath is the homepage path of every generated site.
const PagePath = "/index.html"

// SecondaryPagePath is the second page every site serves; it shares the
// site-wide stylesheets/scripts with the homepage (the "other pages within
// the same website" reuse scenario of §1).
const SecondaryPagePath = "/about.html"

// resourceSpec describes one generated resource and its dynamics.
type resourceSpec struct {
	path   string
	kind   htmlparse.ResourceKind
	size   int
	policy server.CachePolicy
	// period is the content-change interval; 0 = never changes.
	period time.Duration
	// phase desynchronizes change times across resources.
	phase time.Duration
	// ageAtGen backdates the initial Last-Modified.
	ageAtGen time.Duration
	// crossOrigin places the resource on the CDN host.
	crossOrigin bool
	// refs are URLs referenced from this resource's markup: tags for the
	// page, url() values for stylesheets.
	refs []string
	// imports are child stylesheets (@import).
	imports []string
	// fetches are runtime fetch directives (scripts only).
	fetches []string
	// async marks non-parser-blocking scripts.
	async bool
	// fingerprinted assets are referenced by version-stamped URLs
	// (?v=N) with an immutable TTL — the manual cache-busting best
	// practice. Their reference in HTML changes when they do.
	fingerprinted bool
	// appearsAfter, when positive, makes the resource 404 until that long
	// after the site epoch — a reference deployed before its asset
	// (Params.BrokenFrac). The flip to 200 happens as the clock advances.
	appearsAfter time.Duration
}

// Site is one generated website. It exposes two server.Content views: the
// main origin and the site's CDN origin (cross-origin resources).
//
// A Site reads resource versions off its clock. View returns the same site
// on another clock, so several simulations can run one generated site at
// once, each advancing its own virtual time. All views share what
// generation produced: the resource tree, the epoch and the body store,
// which holds one *server.Resource per (request path, version) — for a
// page, its own version and the version of every fingerprinted asset whose
// stamp it embeds. Content is a pure function of those versions, so a view
// answers exactly what a freshly generated site on its clock would, and
// views at the same versions return the same *server.Resource. The store
// keeps every version any view materialized for as long as the site lives.
//
// Get on the Content and CDNContent views is safe for concurrent use, within
// one view and across views of one site; the resource tree is read-only
// after generation and the store is locked. Resources handed out are never
// written (server.Resource's ownership rule).
type Site struct {
	// Host is the main origin, e.g. "site042.example".
	Host string
	// CDNHost serves the cross-origin resources.
	CDNHost string

	clock vclock.Clock
	*generation
}

// generation is what every view of a site shares.
type generation struct {
	epoch time.Time
	specs map[string]*resourceSpec
	order []string

	mu sync.Mutex
	// store holds every materialized resource, keyed as get describes.
	store map[string]*server.Resource
}

func newSite(host string, clock vclock.Clock, epoch time.Time) *Site {
	return &Site{
		Host:    host,
		CDNHost: "cdn." + host,
		clock:   clock,
		generation: &generation{
			epoch: epoch,
			specs: make(map[string]*resourceSpec),
			store: make(map[string]*server.Resource),
		},
	}
}

// View returns the site on clock: the same resources, epoch and body store,
// with versions read off clock instead of the site's own. The epoch stays
// the time the site was generated at, whatever clock reads it.
func (s *Site) View(clock vclock.Clock) *Site {
	v := *s
	v.clock = clock
	return &v
}

func (s *Site) add(spec *resourceSpec) {
	s.specs[spec.path] = spec
	s.order = append(s.order, spec.path)
}

// normPhase returns the spec's phase normalized into [0, period).
func normPhase(spec *resourceSpec) time.Duration {
	if spec.period <= 0 {
		return 0
	}
	return spec.phase % spec.period
}

// version returns how many times the resource has changed since the site
// epoch at time now.
func (s *Site) version(spec *resourceSpec, now time.Time) uint64 {
	if spec.period <= 0 {
		return 0
	}
	elapsed := now.Sub(s.epoch)
	if elapsed < 0 {
		return 0
	}
	return uint64((elapsed + normPhase(spec)) / spec.period)
}

// lastModified returns the time of the resource's most recent change.
func (s *Site) lastModified(spec *resourceSpec, now time.Time) time.Time {
	v := s.version(spec, now)
	if v == 0 {
		return s.epoch.Add(-spec.ageAtGen)
	}
	return s.epoch.Add(time.Duration(v)*spec.period - normPhase(spec))
}

// ChangedBetween reports whether the resource at path changes content
// between times a and b (a ≤ b). Used by corpus statistics.
func (s *Site) ChangedBetween(path string, a, b time.Time) bool {
	spec, ok := s.specs[path]
	if !ok {
		return false
	}
	return s.version(spec, a) != s.version(spec, b)
}

// lookupSpec resolves a request path to its spec. Fingerprinted assets are
// requested with a ?v= query; the server serves the same file regardless of
// the stamp, like real static servers do.
func (s *Site) lookupSpec(path string) (*resourceSpec, bool) {
	if spec, ok := s.specs[path]; ok {
		return spec, true
	}
	if i := strings.IndexByte(path, '?'); i >= 0 {
		if base, ok := s.specs[path[:i]]; ok && base.fingerprinted {
			return base, true
		}
	}
	return nil, false
}

// get materializes the resource at path, whose spec the caller looked up,
// for the current clock time, or returns the one already in the store.
func (s *Site) get(path string, spec *resourceSpec) (*server.Resource, bool) {
	now := s.clock.Now()
	if spec.appearsAfter > 0 && now.Before(s.epoch.Add(spec.appearsAfter)) {
		// Referenced but not yet deployed: the server 404s until the
		// asset appears.
		return nil, false
	}
	v := s.version(spec, now)
	// The store key is the request path followed by every version the
	// body depends on. A page embeds the current ?v= stamps of its
	// fingerprinted dependencies, so their versions are part of its key;
	// mixed folds them into the one number its body and ETag carry, which
	// names a version but is not unique enough to key a store by.
	var buf [64]byte
	key := binary.BigEndian.AppendUint64(append(append(buf[:0], path...), 0), v)
	mixed := v
	if spec.kind == htmlparse.KindDocument {
		for _, ref := range spec.refs {
			if target, okT := s.specByRef(ref); okT && target.fingerprinted {
				tv := s.version(target, now)
				key = binary.BigEndian.AppendUint64(key, tv)
				mixed = mixed*1000003 + tv + 1
			}
		}
	}
	s.mu.Lock()
	res, ok := s.store[string(key)]
	s.mu.Unlock()
	if ok {
		return res, true
	}
	// Rendered unlocked: a view that races this one to the same key
	// renders the same bytes, and the first store wins.
	res = &server.Resource{
		Body:         s.materialize(spec, mixed, now),
		ContentType:  server.TypeByPath(path),
		ETag:         etag.ForVersion(s.Host+path, mixed),
		Policy:       spec.policy,
		LastModified: s.lastModified(spec, now),
	}
	s.mu.Lock()
	if prev, ok := s.store[string(key)]; ok {
		res = prev
	} else {
		s.store[string(key)] = res
	}
	s.mu.Unlock()
	return res, true
}

// materialize renders the resource body for a given version at time now.
func (s *Site) materialize(spec *resourceSpec, v uint64, now time.Time) []byte {
	switch spec.kind {
	case htmlparse.KindDocument:
		return s.renderPage(spec, v, now)
	case htmlparse.KindStylesheet:
		return renderCSS(spec, v)
	case htmlparse.KindScript:
		return renderJS(spec, v)
	default:
		return renderBinary(spec, v)
	}
}

// refFor renders the URL a page uses to reference target: fingerprinted
// assets carry their version at now as a cache-busting query.
func (s *Site) refFor(ref string, now time.Time) string {
	target, ok := s.specByRef(ref)
	if !ok || !target.fingerprinted {
		return ref
	}
	return fmt.Sprintf("%s?v=%d", ref, s.version(target, now))
}

// renderPage emits the homepage HTML listing the spec's refs as the
// appropriate tags.
func (s *Site) renderPage(spec *resourceSpec, v uint64, now time.Time) []byte {
	b := make([]byte, 0, spec.size+256)
	b = fmt.Appendf(b, "<!DOCTYPE html>\n<!-- %s v=%d -->\n<html><head>\n<title>%s</title>\n", s.Host, v, s.Host)
	for _, ref := range spec.refs {
		target, ok := s.specByRef(ref)
		if !ok {
			continue
		}
		switch target.kind {
		case htmlparse.KindStylesheet:
			b = fmt.Appendf(b, "<link rel=\"stylesheet\" href=\"%s\">\n", s.refFor(ref, now))
		case htmlparse.KindScript:
			if target.async {
				b = fmt.Appendf(b, "<script src=\"%s\" async></script>\n", s.refFor(ref, now))
			} else {
				b = fmt.Appendf(b, "<script src=\"%s\"></script>\n", s.refFor(ref, now))
			}
		}
	}
	b = append(b, "</head><body>\n"...)
	for _, ref := range spec.refs {
		target, ok := s.specByRef(ref)
		if !ok {
			continue
		}
		switch target.kind {
		case htmlparse.KindImage:
			b = fmt.Appendf(b, "<img src=\"%s\" alt=\"\">\n", ref)
		case htmlparse.KindMedia:
			b = fmt.Appendf(b, "<video src=\"%s\"></video>\n", ref)
		}
	}
	b = padText(b, spec.size, "<p>", "</p>\n")
	return append(b, "</body></html>\n"...)
}

// specByRef resolves a page/CSS reference (path or absolute CDN URL) to its
// spec.
func (s *Site) specByRef(ref string) (*resourceSpec, bool) {
	if strings.HasPrefix(ref, "https://") {
		if i := strings.Index(ref[len("https://"):], "/"); i >= 0 {
			ref = ref[len("https://")+i:]
		}
	}
	spec, ok := s.specs[ref]
	return spec, ok
}

func renderCSS(spec *resourceSpec, v uint64) []byte {
	b := make([]byte, 0, spec.size+256)
	b = fmt.Appendf(b, "/* %s v=%d */\n", spec.path, v)
	for _, imp := range spec.imports {
		b = fmt.Appendf(b, "@import \"%s\";\n", imp)
	}
	for i, ref := range spec.refs {
		if strings.Contains(ref, "/fonts/") {
			b = fmt.Appendf(b, "@font-face { font-family: F%d; src: url(%s); }\n", i, ref)
		} else {
			b = fmt.Appendf(b, ".c%d { background-image: url(%s); }\n", i, ref)
		}
	}
	return padText(b, spec.size, "/* ", " */\n")
}

func renderJS(spec *resourceSpec, v uint64) []byte {
	b := make([]byte, 0, spec.size+256)
	b = fmt.Appendf(b, "// %s v=%d\n", spec.path, v)
	for _, f := range spec.fetches {
		b = append(append(b, jsexec.Directive(f)...), '\n')
	}
	b = fmt.Appendf(b, "console.log(%q);\n", spec.path)
	return padText(b, spec.size, "// ", "\n")
}

func renderBinary(spec *resourceSpec, v uint64) []byte {
	stamp := fmt.Sprintf("BIN %s v=%d ", spec.path, v)
	if spec.size <= len(stamp) {
		return []byte(stamp)
	}
	body := make([]byte, spec.size)
	copy(body, stamp)
	return body
}

// fillerLine is sized so padding converges in few iterations.
const fillerLine = "lorem ipsum dolor sit amet consectetur adipiscing elit sed do eiusmod tempor incididunt ut labore et dolore magna aliqua"

// padText appends wrapped filler lines until b reaches target bytes (plus
// at most one line of overshoot) and returns it.
func padText(b []byte, target int, open, close string) []byte {
	for len(b) < target {
		b = append(append(append(b, open...), fillerLine...), close...)
	}
	return b
}

// Content returns the main-origin server.Content view.
func (s *Site) Content() server.Content { return &originView{site: s, cdn: false} }

// CDNContent returns the CDN-origin view (cross-origin resources only).
func (s *Site) CDNContent() server.Content { return &originView{site: s, cdn: true} }

type originView struct {
	site *Site
	cdn  bool
}

func (v *originView) Get(path string) (*server.Resource, bool) {
	spec, ok := v.site.lookupSpec(path)
	if !ok || spec.crossOrigin != v.cdn {
		return nil, false
	}
	return v.site.get(path, spec)
}

func (v *originView) Paths() []string {
	var out []string
	for _, p := range v.site.order {
		if v.site.specs[p].crossOrigin == v.cdn {
			out = append(out, p)
		}
	}
	sort.Strings(out)
	return out
}

// NumResources returns the total number of resources on the site,
// including the page itself and cross-origin resources.
func (s *Site) NumResources() int { return len(s.specs) }

// TotalBytes returns the sum of nominal resource sizes (page weight).
func (s *Site) TotalBytes() int64 {
	var n int64
	for _, spec := range s.specs {
		n += int64(spec.size)
	}
	return n
}
