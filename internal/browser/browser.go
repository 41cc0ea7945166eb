// Package browser emulates the client the paper measures with: a
// dependency-resolving page loader running over the discrete-event network
// simulator, with either the conventional RFC 9111 browser cache or the
// CacheCatalyst Service Worker as its caching machinery.
//
// The emulation models what determines page load time (the paper's onLoad
// metric): connection setup, request round trips, transmission under shared
// bandwidth, dependency discovery order (HTML → CSS/JS → CSS-referenced
// images and fonts → JS-discovered resources), and — the paper's subject —
// whether a cached subresource costs zero network time, a revalidation
// round trip, or a full transfer.
package browser

import (
	"context"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"time"

	"cachecatalyst/internal/baselines"
	"cachecatalyst/internal/core"
	"cachecatalyst/internal/headers"
	"cachecatalyst/internal/htmlparse"
	"cachecatalyst/internal/httpcache"
	"cachecatalyst/internal/jsexec"
	"cachecatalyst/internal/netsim"
	"cachecatalyst/internal/sw"
	"cachecatalyst/internal/telemetry"
	"cachecatalyst/internal/vclock"
)

// Mode selects the client caching machinery.
type Mode int

// Modes.
const (
	// Conventional is today's browser: RFC 9111 freshness plus
	// conditional revalidation (Figure 1a/1b behaviour).
	Conventional Mode = iota
	// Catalyst is the paper's client: a Service Worker honoring the
	// proactively delivered X-Etag-Config map (Figure 1c behaviour).
	Catalyst
	// Bundled consumes navigation responses produced by a
	// baselines.NewBundleOrigin (Server-Push or RDR): bundled resources
	// are delivered without further round trips; everything else follows
	// the conventional path.
	Bundled
	// EarlyHints is the conventional browser consuming 103 Early Hints:
	// the navigation's preload Link headers (delivered ahead of the HTML
	// body by netsim.FetchWithHints) start subresource fetches before the
	// document arrives. Caching is plain RFC 9111.
	EarlyHints
)

func (m Mode) String() string {
	switch m {
	case Catalyst:
		return "catalyst"
	case Bundled:
		return "bundled"
	case EarlyHints:
		return "early-hints"
	}
	return "conventional"
}

// Origins resolves a host name to the simulated origin serving it; the
// multi-origin form of netsim.Origin needed for CDN (cross-origin)
// resources.
type Origins interface {
	Lookup(host string) (netsim.Origin, bool)
}

// OriginMap is the trivial Origins implementation.
type OriginMap map[string]netsim.Origin

// Lookup implements Origins.
func (m OriginMap) Lookup(host string) (netsim.Origin, bool) {
	o, ok := m[host]
	return o, ok
}

// LoadResult reports one page load.
type LoadResult struct {
	// PLT is the onLoad time: the virtual time at which every discovered
	// resource finished loading.
	PLT time.Duration
	// FCP approximates First Contentful Paint: the time at which the
	// document plus every render-blocking resource (stylesheets and
	// synchronous scripts, including @import chains) has been delivered.
	// The paper defers FCP to future work; this implements it.
	FCP time.Duration
	// Resources is the number of distinct resources the load needed
	// (including the page itself).
	Resources int
	// NetworkRequests counts requests that went to the network.
	NetworkRequests int64
	// LocalHits counts resources served with zero network time (fresh
	// cache entries or Service-Worker hits).
	LocalHits int64
	// Validations304 counts revalidations answered Not Modified — each
	// one a round trip the paper calls wasted.
	Validations304 int64
	// Validations200 counts revalidations that returned new content.
	Validations200 int64
	// BytesDown / BytesUp are wire bytes including heads.
	BytesDown, BytesUp int64
	// Handshakes counts connection setups.
	Handshakes int64
	// Errors counts resources that could not be fetched (unknown origin,
	// non-200 response, or truncated body after retries).
	Errors int
	// Retries counts network re-attempts after retryable failures (5xx
	// responses and truncated bodies); zero unless the browser has a
	// retry budget (MaxFetchRetries).
	Retries int64
	// TruncatedResponses counts deliveries whose body arrived cut short.
	// Truncated bodies are never cached and never processed as content.
	TruncatedResponses int64
	// PushedResources / PushedUnused count resources delivered ahead by a
	// bundling origin (Bundled mode), and how many of those the load never
	// needed — the wasted bandwidth §5 attributes to push-all.
	PushedResources int
	PushedUnused    int
	// HintedPreloads counts fetches started from 103 Early Hints preload
	// links before the document arrived; HintedUnused counts hints the
	// page never actually referenced (wasted preload bandwidth).
	HintedPreloads int
	HintedUnused   int
	// Trace is the trace the caller passed to LoadContext, now holding
	// every cache decision any layer recorded, in order. It is nil for a
	// load through Load or through a context carrying no trace: such a
	// load records nothing.
	Trace *telemetry.Trace
}

// Browser is an emulated browser. State (HTTP cache, Service Workers)
// persists across Load calls; network connections do not, matching
// revisits that happen hours apart.
//
// A Browser is not safe for concurrent use.
type Browser struct {
	clock     vclock.Clock
	mode      Mode
	transport netsim.TransportOptions
	cache     *httpcache.Cache
	registry  *sw.Registry
	recorder  sw.AccessRecorder // nil unless WithAccessRecorder was called
	// cookies holds name→value per host; enough for the session cookie
	// the recording extension depends on.
	cookies map[string]map[string]string
	// memo is where the loader looks up a body's references first, own
	// the browser's private memo it looks in second. They are one memo
	// unless WithParseMemo shares another.
	memo, own *ParseMemo

	// OnFetch, when set, receives one event per resource delivery — the
	// waterfall data behind Figure-1-style timelines. It runs inside the
	// simulation; it must not call back into the browser.
	OnFetch func(FetchEvent)

	// MaxFetchRetries is the per-resource retry budget for retryable
	// failures (5xx responses, truncated bodies). Zero preserves the
	// historical behaviour: one attempt, failure counts an error.
	// Retries back off exponentially (retryBackoffBase, doubling per
	// attempt) in virtual time.
	MaxFetchRetries int
}

// retryBackoffBase is the first retry delay; attempt n waits 2ⁿ× this.
const retryBackoffBase = 25 * time.Millisecond

// FetchEvent describes one resource delivery during a load.
type FetchEvent struct {
	Host, Path string
	// Start and End are offsets from the start of the load. Local
	// deliveries have Start == End.
	Start, End time.Duration
	// Source is "network", "cache" (HTTP-cache hit), "sw" (Service-Worker
	// hit), or "pushed" (delivered in a bundle).
	Source string
	// Status is the delivered HTTP status; 304-revalidated resources
	// report 200 with Revalidated set.
	Status      int
	Revalidated bool
	// Decisions are the cache decisions behind this delivery, in order:
	// the client's own ("sw-hit", "cache", "revalidate", "etag-match",
	// "network", "pushed") followed by any the origin mirrored back in a
	// Server-Timing header, prefixed "origin:". HAR exports carry them as
	// the entry's _decisions annotation.
	Decisions []string
}

// New returns a browser with empty caches.
func New(clock vclock.Clock, mode Mode, transport netsim.TransportOptions) *Browser {
	own := NewParseMemo()
	b := &Browser{clock: clock, mode: mode, transport: transport, memo: own, own: own}
	b.ClearState()
	return b
}

// Cache returns the conventional HTTP cache (for inspection in tests).
func (b *Browser) Cache() *httpcache.Cache { return b.cache }

// Workers returns the Service-Worker registry.
func (b *Browser) Workers() *sw.Registry { return b.registry }

// WithAccessRecorder makes every Service Worker this browser installs
// report its subresource accesses (key and byte size) to rec — the hook
// harness runs use to export the workload as a replayable cache trace.
// Survives ClearState. Returns b for chaining at construction.
func (b *Browser) WithAccessRecorder(rec sw.AccessRecorder) *Browser {
	b.recorder = rec
	b.ClearState()
	return b
}

// ClearState discards all client state — the paper's "cold cache" setup.
func (b *Browser) ClearState() {
	b.cache = httpcache.New(b.clock)
	b.registry = sw.NewRegistry().WithRecorder(b.recorder)
	b.cookies = make(map[string]map[string]string)
}

// cookieHeader renders the stored cookies for host.
func (b *Browser) cookieHeader(host string) string {
	jar := b.cookies[host]
	if len(jar) == 0 {
		return ""
	}
	names := make([]string, 0, len(jar))
	for n := range jar {
		names = append(names, n)
	}
	sort.Strings(names)
	parts := make([]string, 0, len(names))
	for _, n := range names {
		parts = append(parts, n+"="+jar[n])
	}
	return strings.Join(parts, "; ")
}

// storeCookies records Set-Cookie headers from a response. Only the
// name=value pair matters for the emulation; attributes are ignored.
func (b *Browser) storeCookies(host string, resp *httpcache.Response) {
	for _, sc := range resp.Header.Values("Set-Cookie") {
		nv, _, _ := strings.Cut(sc, ";")
		name, value, ok := strings.Cut(strings.TrimSpace(nv), "=")
		if !ok || name == "" {
			continue
		}
		if b.cookies[host] == nil {
			b.cookies[host] = make(map[string]string)
		}
		b.cookies[host][name] = value
	}
}

// Load performs one navigation to https://host+path under the given network
// conditions and returns the load metrics. Origins must resolve host (and
// any cross-origin hosts the page references).
func (b *Browser) Load(origins Origins, cond netsim.Conditions, host, path string) (LoadResult, error) {
	return b.LoadContext(context.Background(), origins, cond, host, path)
}

// LoadContext is Load with request tracing: when ctx carries a telemetry
// trace, every cache decision the load makes — locally and, via
// Server-Timing, at the origin — is recorded on it, its ID is sent in
// X-Request-Id, and it is returned in LoadResult.Trace. A ctx without a
// trace records nothing; LoadContext starts no trace of its own.
func (b *Browser) LoadContext(ctx context.Context, origins Origins, cond netsim.Conditions, host, path string) (LoadResult, error) {
	origin, ok := origins.Lookup(host)
	if !ok {
		return LoadResult{}, fmt.Errorf("browser: no origin for host %q", host)
	}
	tr, _ := telemetry.TraceFrom(ctx)
	ctx, span := telemetry.BeginSpan(ctx, "load")
	defer span.End()
	l := &loader{
		b:         b,
		ctx:       ctx,
		trace:     tr,
		sim:       netsim.NewSim(),
		origins:   origins,
		cond:      cond,
		endpoints: make(map[string]*netsim.Endpoint),
		seen:      make(map[resKey]bool),
		completed: make(map[resKey]bool),
		hinted:    make(map[resKey]bool),
		pageHost:  host,
		pagePath:  path,
	}
	l.result.Trace = tr
	l.endpoints[host] = netsim.NewEndpoint(l.sim, cond, origin, b.transport)

	l.sim.After(0, func() { l.fetch(host, path, htmlparse.KindDocument) })
	end := l.sim.Run()
	l.result.PLT = end
	l.result.FCP = l.fcp
	if !l.fcpSet {
		l.result.FCP = end
	}
	l.result.Resources = len(l.seen)
	if l.pushed != nil {
		l.result.PushedUnused = len(l.pushed) - len(l.pushedUsed)
	}
	l.result.HintedUnused = len(l.hinted)
	for _, ep := range l.endpoints {
		st := ep.Stats()
		l.result.BytesDown += st.BytesDown
		l.result.BytesUp += st.BytesUp
		l.result.Handshakes += st.Handshakes
	}
	return l.result, nil
}

// resKey names a resource within a load: its host and path, kept apart so
// that keying a map by one allocates nothing.
type resKey struct{ host, path string }

// loader is the per-navigation state machine.
type loader struct {
	b         *Browser
	ctx       context.Context
	trace     *telemetry.Trace
	sim       *netsim.Sim
	origins   Origins
	cond      netsim.Conditions
	endpoints map[string]*netsim.Endpoint
	// seen dedupes fetches by host and path, like a browser coalescing
	// identical in-flight requests.
	seen map[resKey]bool
	// completed marks resources fully settled (delivered+processed or
	// failed). A seen-but-not-completed resource is in flight — the
	// parser can still register it as render-blocking (preloads start
	// before the parser knows what blocks).
	completed map[resKey]bool
	// hinted tracks 103-preloaded keys not yet referenced by the page;
	// what remains at the end of the load is wasted preload work.
	hinted map[resKey]bool
	// hintKey/onHints route the navigation's early-hint delivery: only
	// the request for hintKey fetches with hints.
	hintKey  resKey
	onHints  func(http.Header)
	pageHost string
	pagePath string
	// referer is every request's Referer value, made on the first; no
	// origin writes a request header, so the requests share it.
	referer []string
	result  LoadResult
	// pushed holds resources delivered ahead of request by a bundling
	// origin (Bundled mode), keyed by path; pushedUsed tracks consumption.
	pushed     map[string]*httpcache.Response
	pushedUsed map[string]bool

	// FCP bookkeeping: the paint can happen once the document has been
	// processed and no render-blocking resource is outstanding.
	htmlProcessed bool
	blockingLeft  int
	blockingKeys  map[resKey]bool
	fcp           time.Duration
	fcpSet        bool
}

// fetchBlocking schedules a render-blocking fetch (stylesheets, sync
// scripts): FCP waits for it.
func (l *loader) fetchBlocking(host, path string, kind htmlparse.ResourceKind) {
	key := resKey{host, path}
	// A resource becomes render-blocking when first requested, or when the
	// parser discovers that a resource already in flight (a 103 preload
	// started it) blocks rendering — FCP must wait either way.
	if !l.seen[key] || !l.completed[key] && !l.blockingKeys[key] {
		if l.blockingKeys == nil {
			l.blockingKeys = make(map[resKey]bool)
		}
		l.blockingKeys[key] = true
		l.addBlocking()
	}
	l.fetch(host, path, kind)
}

// finish marks a resource settled (delivered or failed) and retires any
// render-blocking obligation, reporting whether it was blocking.
func (l *loader) finish(host, path string) bool {
	l.completed[resKey{host, path}] = true
	return l.completeBlocking(host, path)
}

// completeBlocking retires the blocking obligation for a delivered (or
// failed) resource, reporting whether it was render-blocking.
func (l *loader) completeBlocking(host, path string) bool {
	key := resKey{host, path}
	if !l.blockingKeys[key] {
		return false
	}
	delete(l.blockingKeys, key)
	l.blockingDone()
	return true
}

// addBlocking notes one render-blocking resource in flight.
func (l *loader) addBlocking() { l.blockingLeft++ }

// blockingDone retires one render-blocking resource and fires FCP when the
// document is ready and nothing render-blocking remains.
func (l *loader) blockingDone() {
	if l.blockingLeft > 0 {
		l.blockingLeft--
	}
	l.maybeFCP()
}

func (l *loader) maybeFCP() {
	if !l.fcpSet && l.htmlProcessed && l.blockingLeft == 0 {
		l.fcp = l.sim.Now()
		l.fcpSet = true
	}
}

func (l *loader) endpoint(host string) (*netsim.Endpoint, bool) {
	if ep, ok := l.endpoints[host]; ok {
		return ep, true
	}
	origin, ok := l.origins.Lookup(host)
	if !ok {
		return nil, false
	}
	ep := netsim.NewEndpoint(l.sim, l.cond, origin, l.b.transport)
	l.endpoints[host] = ep
	return ep, true
}

// fetch loads one resource (deduplicated) and processes its content.
func (l *loader) fetch(host, path string, kind htmlparse.ResourceKind) {
	key := resKey{host, path}
	if l.seen[key] {
		// A reference to a hinted resource means the preload was useful.
		delete(l.hinted, key)
		return
	}
	l.seen[key] = true

	isNav := kind == htmlparse.KindDocument && host == l.pageHost && path == l.pagePath
	switch l.b.mode {
	case Catalyst:
		l.fetchCatalyst(host, path, kind, isNav)
	case Bundled:
		l.fetchBundled(host, path, kind, isNav)
	case EarlyHints:
		l.fetchEarlyHints(host, path, kind, isNav)
	default:
		l.fetchConventional(host, path, kind, isNav)
	}
}

// decide records each decision on the load's trace, if it has one (tagged
// with the resource key), and returns the slice for the FetchEvent.
func (l *loader) decide(host, path string, decisions []string) []string {
	if l.trace == nil {
		return decisions
	}
	for _, d := range decisions {
		telemetry.Event(l.ctx, d, host+path)
	}
	return decisions
}

// deliverLocal serves a response from client state with zero network time.
func (l *loader) deliverLocal(host, path string, kind htmlparse.ResourceKind, source string, resp *httpcache.Response, decision string) {
	l.result.LocalHits++
	l.sim.After(0, func() {
		if l.recordsDecisions() {
			dec := l.decide(host, path, []string{decision})
			if l.b.OnFetch != nil {
				l.b.OnFetch(FetchEvent{
					Host: host, Path: path,
					Start: l.sim.Now(), End: l.sim.Now(),
					Source: source, Status: resp.StatusCode,
					Decisions: dec,
				})
			}
		}
		l.process(host, path, kind, resp, false)
	})
}

// recordsDecisions reports whether anything reads a delivery's decisions:
// a trace on the load or an OnFetch hook. Without either, none are built.
func (l *loader) recordsDecisions() bool { return l.trace != nil || l.b.OnFetch != nil }

// --- Conventional mode -----------------------------------------------

func (l *loader) fetchConventional(host, path string, kind htmlparse.ResourceKind, isNav bool) {
	l.fetchViaHTTPCache(host, path, kind, nil)
}

// fetchViaHTTPCache implements the RFC 9111 client path: fresh entries are
// served locally, stale entries with a validator revalidate conditionally,
// and everything else is fetched in full. The optional after hook receives
// the delivered response — the Catalyst mode uses it to mirror deliveries
// into the Service-Worker cache, because a real SW's fetch() also flows
// through the browser's HTTP cache.
func (l *loader) fetchViaHTTPCache(host, path string, kind htmlparse.ResourceKind, after func(*httpcache.Response)) {
	key := cacheKey(host, path)
	entry, state := l.b.cache.Get(key)
	if state == httpcache.Fresh {
		if after != nil {
			after(entry.Response)
		}
		l.deliverLocal(host, path, kind, "cache", entry.Response, "cache")
		return
	}
	full := func(resp *httpcache.Response, reqAt, respAt time.Duration) *httpcache.Response {
		l.b.cache.Put(key, resp, l.absTime(reqAt), l.absTime(respAt))
		if after != nil {
			after(resp)
		}
		return resp
	}
	if state == httpcache.Stale {
		hdr := make(http.Header)
		if tag, ok := entry.ETag(); ok {
			hdr["If-None-Match"] = []string{tag.String()}
		} else if lm := headers.Value(entry.Response.Header, "Last-Modified"); lm != "" {
			// No entity tag; fall back to timestamp validation
			// (If-Modified-Since), as browsers do.
			hdr["If-Modified-Since"] = []string{lm}
		}
		if len(hdr) > 0 {
			l.networkFetch(host, path, kind, hdr, func(resp *httpcache.Response, reqAt, respAt time.Duration) *httpcache.Response {
				if resp.StatusCode == http.StatusNotModified {
					l.result.Validations304++
					l.b.cache.Refresh(key, resp, l.absTime(reqAt), l.absTime(respAt))
					fresh, _ := l.b.cache.Peek(key)
					if after != nil {
						after(fresh.Response)
					}
					return fresh.Response
				}
				l.result.Validations200++
				return full(resp, reqAt, respAt)
			})
			return
		}
		// No validator at all: fall through to a full fetch.
	}
	l.networkFetch(host, path, kind, make(http.Header), full)
}

// --- Catalyst mode ----------------------------------------------------

func (l *loader) fetchCatalyst(host, path string, kind htmlparse.ResourceKind, isNav bool) {
	// Real Service Workers intercept every fetch a controlled page makes,
	// including cross-origin subresources, so the *page's* worker is the
	// interceptor regardless of the resource's host. Cross-origin entries
	// are keyed by absolute URL, same-origin ones by path.
	worker, registered := l.b.registry.Lookup(l.pageHost)
	swKey := path
	if host != l.pageHost {
		swKey = core.CrossOriginKey(host, path, "")
	}
	if isNav {
		// Navigations flow through the HTTP cache like any SW fetch();
		// HTML is typically no-cache, so this costs a conditional request
		// whose 304 still carries the refreshed X-Etag-Config header —
		// the client gets fresh tokens without re-downloading the page.
		l.fetchViaHTTPCache(host, path, kind, func(resp *httpcache.Response) {
			if !registered && strings.Contains(resp.Text(), `serviceWorker`) {
				l.b.registry.Register(host)
			}
			if w, ok := l.b.registry.Lookup(host); ok {
				w.OnNavigationResponse(resp)
			}
		})
		return
	}
	if registered {
		if resp, ok := worker.HandleFetchContext(l.ctx, swKey); ok {
			l.deliverLocal(host, path, kind, "sw", resp, "sw-hit")
			return
		}
	}
	// The SW forwards the request; in a real browser that fetch() flows
	// through the HTTP cache, so conditional revalidation still applies to
	// resources the map does not cover. The delivered response is mirrored
	// into the SW cache for future zero-RTT hits.
	l.fetchViaHTTPCache(host, path, kind, func(resp *httpcache.Response) {
		if w, ok := l.b.registry.Lookup(l.pageHost); ok {
			w.OnSubresourceResponse(swKey, resp)
		}
	})
}

// --- Bundled mode (Server Push / RDR baselines) ------------------------

func (l *loader) fetchBundled(host, path string, kind htmlparse.ResourceKind, isNav bool) {
	if isNav {
		l.networkFetch(host, path, kind, make(http.Header), func(resp *httpcache.Response, reqAt, respAt time.Duration) *httpcache.Response {
			page, pushed, ok := baselines.Split(resp)
			if !ok {
				return resp
			}
			l.pushed = pushed
			l.pushedUsed = make(map[string]bool, len(pushed))
			l.result.PushedResources = len(pushed)
			// Pushed responses enter the HTTP cache, as h2-pushed
			// streams do.
			for p, sub := range pushed {
				l.b.cache.Put(cacheKey(host, p), sub, l.absTime(reqAt), l.absTime(respAt))
			}
			return page
		})
		return
	}
	if host == l.pageHost {
		if resp, ok := l.pushed[path]; ok {
			l.pushedUsed[path] = true
			l.result.PushedUnused = len(l.pushed) - len(l.pushedUsed)
			l.deliverLocal(host, path, kind, "pushed", resp, "pushed")
			return
		}
	}
	l.fetchConventional(host, path, kind, false)
}

// --- Early Hints mode ---------------------------------------------------

// fetchEarlyHints is the conventional path, except the navigation request
// subscribes to 103 Early Hints: preload links delivered ahead of the HTML
// body start subresource fetches immediately.
func (l *loader) fetchEarlyHints(host, path string, kind htmlparse.ResourceKind, isNav bool) {
	if isNav {
		l.hintKey = resKey{host, path}
		l.onHints = func(h http.Header) { l.consumeHints(host, path, h) }
	}
	l.fetchViaHTTPCache(host, path, kind, nil)
}

// consumeHints starts a fetch for every preload link in an early-hints
// header block, resolved against the navigation URL.
func (l *loader) consumeHints(navHost, navPath string, hdr http.Header) {
	for _, t := range hintTargets(navHost, navPath, hdr.Values("Link")) {
		key := resKey{t.host, t.path}
		if l.seen[key] {
			continue
		}
		l.result.HintedPreloads++
		l.hinted[key] = true
		l.decide(t.host, t.path, []string{"hinted"})
		l.fetch(t.host, t.path, t.kind)
	}
}

// parseLinkPreloads extracts the URLs of rel=preload targets from Link
// header values (which may each carry multiple comma-separated links).
func parseLinkPreloads(links []string) []string {
	var out []string
	for _, header := range links {
		for _, link := range strings.Split(header, ",") {
			if !strings.Contains(link, "rel=preload") {
				continue
			}
			open := strings.IndexByte(link, '<')
			end := strings.IndexByte(link, '>')
			if open < 0 || end <= open+1 {
				continue
			}
			out = append(out, link[open+1:end])
		}
	}
	return out
}

// kindForPath infers the resource kind a preload target will be parsed as.
func kindForPath(p string) htmlparse.ResourceKind {
	if i := strings.IndexByte(p, '?'); i >= 0 {
		p = p[:i]
	}
	switch {
	case strings.HasSuffix(p, ".css"):
		return htmlparse.KindStylesheet
	case strings.HasSuffix(p, ".js"):
		return htmlparse.KindScript
	}
	return htmlparse.KindImage
}

// --- Shared plumbing --------------------------------------------------

// networkFetch issues a request; intercept post-processes the raw response
// (cache bookkeeping) and returns the response to hand to content
// processing. Retryable failures (5xx, truncated bodies) are re-attempted
// within the browser's retry budget before counting an error.
func (l *loader) networkFetch(host, path string, kind htmlparse.ResourceKind, hdr http.Header, intercept func(resp *httpcache.Response, reqAt, respAt time.Duration) *httpcache.Response) {
	ep, ok := l.endpoint(host)
	if !ok {
		l.result.Errors++
		l.finish(host, path)
		return
	}
	if l.referer == nil {
		l.referer = []string{"https://" + l.pageHost + l.pagePath}
	}
	hdr["Referer"] = l.referer
	if l.trace != nil {
		hdr[telemetry.RequestIDHeader] = []string{l.trace.ID}
	}
	if c := l.b.cookieHeader(host); c != "" {
		hdr["Cookie"] = []string{c}
	}
	l.attemptFetch(ep, host, path, kind, hdr, intercept, 0)
}

// retryable reports whether a response may be cured by re-requesting: a
// server-side error or a body cut short in transit.
func retryable(resp *httpcache.Response) bool {
	return resp.Truncated || resp.StatusCode >= 500
}

// attemptFetch performs one network attempt, scheduling a backed-off retry
// on retryable failure while budget remains.
func (l *loader) attemptFetch(ep *netsim.Endpoint, host, path string, kind htmlparse.ResourceKind, hdr http.Header, intercept func(resp *httpcache.Response, reqAt, respAt time.Duration) *httpcache.Response, attempt int) {
	l.result.NetworkRequests++
	reqAt := l.sim.Now()
	req := &netsim.Request{Method: "GET", Path: path, Header: hdr}
	fetch := func(done func(netsim.FetchResult)) { ep.Fetch(req, done) }
	if l.onHints != nil && (resKey{host, path}) == l.hintKey {
		fetch = func(done func(netsim.FetchResult)) { ep.FetchWithHints(req, l.onHints, done) }
	}
	fetch(func(fr netsim.FetchResult) {
		if retryable(fr.Resp) && attempt < l.b.MaxFetchRetries {
			l.result.Retries++
			if fr.Resp.Truncated {
				l.result.TruncatedResponses++
			}
			backoff := retryBackoffBase << attempt
			l.sim.After(backoff, func() {
				l.attemptFetch(ep, host, path, kind, hdr, intercept, attempt+1)
			})
			return
		}
		l.b.storeCookies(host, fr.Resp)
		dec := l.networkDecisions(host, path, hdr, fr.Resp)
		if fr.Resp.Truncated {
			// The body is a prefix of the real entity: never cache it,
			// never process it as content — the resource simply failed.
			l.result.TruncatedResponses++
			l.result.Errors++
			if l.b.OnFetch != nil {
				l.b.OnFetch(FetchEvent{
					Host: host, Path: path,
					Start: reqAt, End: fr.End,
					Source: "network", Status: fr.Resp.StatusCode,
					Decisions: dec,
				})
			}
			l.finish(host, path)
			return
		}
		resp := intercept(fr.Resp, reqAt, fr.End)
		if l.b.OnFetch != nil {
			l.b.OnFetch(FetchEvent{
				Host: host, Path: path,
				Start: reqAt, End: fr.End,
				Source: "network", Status: resp.StatusCode,
				Revalidated: fr.Resp.StatusCode == http.StatusNotModified,
				Decisions:   dec,
			})
		}
		if resp.StatusCode != http.StatusOK {
			l.result.Errors++
			l.finish(host, path)
			return
		}
		// A body the interceptor swapped (for a cached copy or a bundle's
		// part) is not the origin's own.
		l.process(host, path, kind, resp, resp == fr.Resp)
	})
}

// networkDecisions derives the decision annotation for one network
// delivery — the client's view (revalidate / etag-match / network) followed
// by whatever the origin reported back via Server-Timing, prefixed
// "origin:" — and records it on the load's trace.
func (l *loader) networkDecisions(host, path string, hdr http.Header, resp *httpcache.Response) []string {
	if !l.recordsDecisions() {
		return nil
	}
	dec := make([]string, 0, 4)
	if headers.Value(hdr, "If-None-Match") != "" || headers.Value(hdr, "If-Modified-Since") != "" {
		dec = append(dec, "revalidate")
	}
	if resp.StatusCode == http.StatusNotModified {
		dec = append(dec, "etag-match")
	} else {
		dec = append(dec, "network")
	}
	for _, tok := range telemetry.ParseServerTiming(headers.Value(resp.Header, telemetry.ServerTimingHeader)) {
		dec = append(dec, "origin:"+tok)
	}
	return l.decide(host, path, dec)
}

// absTime maps a sim offset to the browser's wall clock (the load starts at
// clock.Now()).
func (l *loader) absTime(d time.Duration) time.Time {
	return l.b.clock.Now().Add(d)
}

// process inspects a delivered resource and schedules dependent fetches.
// asSent says the body is exactly the one the origin sent for this request
// (see ParseMemo).
func (l *loader) process(host, path string, kind htmlparse.ResourceKind, resp *httpcache.Response, asSent bool) {
	wasBlocking := l.finish(host, path)
	ct := headers.Value(resp.Header, "Content-Type")
	switch {
	case kind == htmlparse.KindDocument && strings.HasPrefix(ct, "text/html"):
		l.processHTML(host, path, resp, asSent)
	case strings.HasPrefix(ct, "text/css"):
		l.processCSS(host, path, resp, asSent, wasBlocking)
	case strings.HasPrefix(ct, "text/javascript"), strings.HasPrefix(ct, "application/javascript"):
		l.processJS(host, resp, asSent)
	}
}

func (l *loader) processHTML(host, path string, resp *httpcache.Response, asSent bool) {
	ts, _ := l.b.references(htmlBody, resp, host, path, asSent)
	for _, t := range ts {
		// Stylesheets and synchronous scripts block the first paint.
		if t.blocking {
			l.fetchBlocking(t.host, t.path, t.kind)
			continue
		}
		l.fetch(t.host, t.path, t.kind)
	}
	l.htmlProcessed = true
	l.maybeFCP()
}

func (l *loader) processCSS(host, path string, resp *httpcache.Response, asSent, wasBlocking bool) {
	ts, _ := l.b.references(cssBody, resp, host, path, asSent)
	for _, t := range ts {
		// @import chains inherit the parent sheet's blocking.
		if t.blocking && wasBlocking {
			l.fetchBlocking(t.host, t.path, t.kind)
			continue
		}
		l.fetch(t.host, t.path, t.kind)
	}
}

func (l *loader) processJS(host string, resp *httpcache.Response, asSent bool) {
	ts, written := l.b.references(jsBody, resp, host, "/", asSent)
	if written == 0 {
		return
	}
	// Script evaluation takes time before runtime fetches issue.
	l.sim.After(jsexec.ExecDelayMillis*time.Millisecond, func() {
		for _, t := range ts {
			l.fetch(t.host, t.path, t.kind)
		}
	})
}

// cacheKey is the conventional cache's key for a resource.
func cacheKey(host, path string) string { return host + path }
