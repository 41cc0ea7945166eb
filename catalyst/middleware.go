package catalyst

import (
	"cmp"
	"context"
	"net/http"
	"net/url"
	"sync"
	"time"

	"cachecatalyst/internal/cachestore"
	"cachecatalyst/internal/core"
	"cachecatalyst/internal/etag"
	"cachecatalyst/internal/headers"
	"cachecatalyst/internal/resilience"
	"cachecatalyst/internal/server"
	"cachecatalyst/internal/telemetry"
	"cachecatalyst/internal/tenant"
	"cachecatalyst/internal/vclock"
)

// MiddlewareOptions configures Middleware. A value no program sets is not an
// option but a constant (see tuning).
type MiddlewareOptions struct {
	// MaxRenderBytes bounds the rendered-page cache, which keeps one entry
	// per page URL: the extracted reference list, injected body, and page
	// validator of the page's most recent body, so an unchanged page skips
	// re-parsing and re-hashing, plus what a held page's conditional
	// re-fetch needs. Zero selects 16 MiB; negative disables the cache (and
	// with it page revalidation). Freshness is unaffected either way — the
	// X-Etag-Config header is always assembled from live probes (from
	// Content, in front of a *server.Server).
	MaxRenderBytes int64
	// Telemetry, when set, indexes the middleware's counters, both its
	// caches, and an HTML decoration-latency histogram in the given
	// registry under "middleware.*".
	Telemetry *telemetry.Registry
	// MaxInflight bounds how many instrumented GET/HEAD requests may run
	// concurrently. As many again may wait up to 50 ms for a slot; the
	// rest are shed down the degradation ladder — stale copy,
	// un-instrumented passthrough, or 503 — instead of piling onto a
	// saturated inner handler. Zero disables admission control.
	MaxInflight int
	// RequestBudget, when positive, puts a wall-clock deadline on every
	// instrumented request. Stages consume from it — probe fan-out stops
	// issuing new probes once the budget is spent — and a request whose
	// budget runs out before map assembly is served its rendered HTML
	// un-instrumented rather than late.
	RequestBudget time.Duration
	// OriginBreaker, when set, is the default state's inner-handler
	// circuit breaker (a tenant's is tenant.Tenant.Breaker): after
	// resilience.BreakerThreshold consecutive 5xx/panic serves the middleware
	// stops calling the inner handler and answers from the stale cache (or
	// 503) until the breaker admits a trial. Nil disables the breaker —
	// appropriate when the inner handler is in-process; catalystd's proxy
	// mode wires one shared with an active health checker
	// (resilience.NewHealthChecker), so a flapping upstream origin flips to
	// stale-serving instead of error-proxying and recovery is probe-driven.
	OriginBreaker *resilience.Breaker
	// ServerTiming mirrors each decorated response's cache decisions
	// ("map-built", "map-reused", "etag-match") into a Server-Timing header
	// so clients can annotate their traces with the origin middleware's view.
	// In front of a *server.Server, the server's own ServerTiming option
	// turns it on too.
	ServerTiming bool
	// Exchange, when set, connects the middleware to a cluster hot-map
	// exchange (internal/cluster): freshly assembled X-Etag-Config
	// encodings are published to peers, and a peer-published encoding for
	// the exact entity being served is adopted instead of running the
	// local probe fan-out. Nil disables the exchange. In front of a
	// *server.Server, which probes nothing, it is unused.
	Exchange MapExchange
}

// No program sets the values below, so they are constants rather than
// options (DESIGN.md, "Frozen values").
const (
	// probeTTL bounds how long a subresource's probed ETag is reused before
	// the inner handler is asked again: PROTOCOL.md §2.3's trust bound.
	// Fresh enough that a deployed map is never stale longer than that,
	// cheap enough that hot pages don't probe every sibling per request.
	probeTTL = time.Second
	// breakerThreshold consecutive failed probes of a path open its circuit
	// breaker: the path is not probed (and stays out of the map) for
	// breakerCooldown, so an inner handler erroring on one path is not
	// hammered on every render.
	breakerThreshold = 3
	breakerCooldown  = 30 * time.Second
	// maxProbeEntries bounds the probe cache, in units of probeBaseCost
	// bytes: 8 MiB, half the default render budget, set on purpose rather
	// than inherited from an entry count. A probe entry is what lets the
	// next probe of its path be a revalidation instead of a download, so
	// the cache is only worth having if an entry is still there when its
	// probeTTL runs out: the budget must hold the working set of references
	// — validators, and stylesheet bodies at their real bytes — of the pages
	// the render cache keeps beside it (≈ 400 pages of ≈ 40 references each
	// at the defaults), or every render hit is a cold fan-out. Measured on
	// page_churn (6 000 paths + 600 stylesheets of 6 KB ≈ 5.1 MB): a 1 MiB
	// budget turns over in under 100 ms against the 1 s TTL and 237 probes
	// in 271 281 are revalidations; the knee is at the working set, and from
	// 6 MiB up no probe is evicted at all. The sweep is in EXPERIMENTS.md,
	// "Proxy-mode upstream cost".
	maxProbeEntries = 32768
	// probeConcurrency bounds how many subresources of one page are probed
	// at once, so a cold page with N subresources costs roughly its slowest
	// probe rather than the sum. Probe cost is dominated by the inner
	// handler (I/O, locks), not CPU, so the width does not track
	// GOMAXPROCS. Concurrent renders still probe each path once: the
	// fan-out dedups through the probe cache's singleflight.
	probeConcurrency = 8
	// contentConcurrency is the width a resolve from a server's Content
	// runs at: a Content lookup is a map read, not worth a goroutine, and a
	// sequential resolve keeps the simulator's content deterministic.
	contentConcurrency = 1
	// staleFor is how long a successfully served page may be re-served from
	// the stale cache (with a Warning 110 header) when the inner handler is
	// saturated, erroring, or broken; a tenant's StaleFor overrides it. The
	// stale cache holds bodyStoreBudget bytes.
	staleFor = 5 * time.Minute
	// retryAfter is the Retry-After hint on ladder-bottom 503 responses.
	retryAfter = 5 * time.Second
)

// defaultRenderBytes is the render cache budget a zero MaxRenderBytes
// selects.
const defaultRenderBytes = 16 << 20

// bodyStoreBudget bounds the stale cache, the one store that keeps a body
// per page beside the renders.
const bodyStoreBudget = 8 << 20

// tuning holds the frozen values a test needs other settings of. Middleware
// serves with frozen(), the one place they are read; only a test reaches
// other values (export_test.go).
type tuning struct {
	// clock is what every age is read off: a probe's, a stale copy's, a
	// path's and the origin's open breaker's, a peer map's. In front of a
	// *server.Server it is the server's own. What a stage costs is read off
	// the wall clock instead.
	clock              vclock.Clock
	maxProbeEntries    int
	probeConcurrency   int
	contentConcurrency int
	// maxMapBytes bounds every X-Etag-Config value the middleware writes
	// (encodeMap).
	maxMapBytes int
}

// frozen returns the tuning Middleware serves with.
func frozen() tuning {
	return tuning{
		clock:              vclock.System{},
		maxProbeEntries:    maxProbeEntries,
		probeConcurrency:   probeConcurrency,
		contentConcurrency: contentConcurrency,
		maxMapBytes:        core.MaxEncodedMapBytes,
	}
}

// Middleware retrofits CacheCatalyst onto any http.Handler:
//
//   - HTML responses are inspected (the paper's DOM traversal); each
//     same-origin subresource is probed against the inner handler to learn
//     its current ETag, and the resulting map ships in X-Etag-Config.
//   - The Service-Worker registration snippet is injected and the worker
//     script is served at WorkerPath.
//   - Conditional requests against the rewritten HTML are answered 304.
//
// Non-HTML responses stream through untouched — the inner handler executes
// exactly once per request and its body is never buffered — so the
// middleware composes with whatever caching headers the inner handler
// already emits, at passthrough cost independent of body size.
//
// In front of a *server.Server — the paper's arrangement, a DOM-walking
// handler before a file server — the pipeline is the same from the render on,
// but its page and its lookups come from the server's Content instead of
// from running next and probing it (see contentFront).
//
// The middleware also hardens the wrapped handler: a panic in the inner
// handler is recovered and answered 500 (never a crashed connection), and
// subresource probing is protected by a per-path circuit breaker so a
// handler that errors on one path cannot be hammered by re-probes.
// Concurrent probes of the same path are collapsed into a single
// inner-handler call.
func Middleware(next http.Handler, opts MiddlewareOptions) http.Handler {
	return newMiddleware(next, opts, frozen())
}

func newMiddleware(next http.Handler, opts MiddlewareOptions, tune tuning) *middleware {
	m := &middleware{next: next, opts: opts, tune: tune, metrics: &middlewareMetrics{}, prefix: "middleware."}
	m.build.Concurrency = tune.probeConcurrency
	reuses := "encode_reuses"
	if srv, ok := next.(*server.Server); ok {
		m.content, m.prefix, reuses = newContentFront(srv), "server.", "maps_reused"
		m.build = core.BuildOptions{CrossOriginETag: m.content.cross, Concurrency: tune.contentConcurrency}
		so := srv.Options()
		m.tune.clock = so.Clock
		m.opts.ServerTiming = opts.ServerTiming || so.ServerTiming
		m.opts.Telemetry = cmp.Or(opts.Telemetry, so.Telemetry)
		m.opts.Exchange = nil
	}
	if reg := m.opts.Telemetry; reg != nil {
		m.metrics.register(reg, m.prefix, reuses)
		if m.content == nil {
			m.htmlNS = reg.Histogram("middleware.html_ns")
		}
	}
	m.initState(&m.def, nil)
	return m
}

// probeBaseCost is the byte charge for one probe-cache entry before its
// retained stylesheet body: a rough stand-in for the key, tag, timestamps
// and map overhead an entry costs regardless of content.
const probeBaseCost = 256

type middleware struct {
	next http.Handler
	opts MiddlewareOptions
	tune tuning
	// content is set when next is a *server.Server: pages and lookups come
	// from its Content, and no probe, stale or breaker state is built.
	content *contentFront
	// build is every resolve's options: the source's width and, in front of
	// a *server.Server, its CrossOriginETag.
	build  core.BuildOptions
	prefix string // the default state's telemetry names: "middleware." or "server."
	// metrics is its own allocation, so the counters every request bumps
	// share no cache line with the fields every request reads.
	metrics *middlewareMetrics
	htmlNS  *telemetry.Histogram // nil without telemetry
	// def is the default serving state — initState called with no tenant:
	// the only state a single-tenant deployment ever touches.
	def tenantState
	// tenants memoizes per-tenant serving state by tenant name, built
	// once, on a tenant's first request, under tenantsMu (see stateFor).
	tenants   sync.Map // string → *tenantState
	tenantsMu sync.Mutex
}

// tenantState is one tenant's slice of the middleware: its caches (probe
// results, rendered pages, stale copies), its admission gate
// and its upstream breaker. Dimensioning the state
// this way is what makes the degradation ladder per-tenant: one tenant's
// saturated or flapping upstream trips its own gate and breaker while its
// neighbours serve undisturbed.
type tenantState struct {
	name string // "" for the default state
	// src answers the lookups of the state's maps: content, or the probes.
	src    mapSource
	probes *cachestore.Store[probe]
	// renders maps page URL → the render of its most recent body, held or
	// not (see renderEntry); nil when disabled.
	renders *cachestore.Store[*renderEntry]
	stales  *cachestore.Store[*staleEntry] // last-known-good serves; nil when disabled
	gate    *resilience.Gate               // admission control; nil when disabled
	breaker *resilience.Breaker            // inner-handler health; nil when disabled
	// staleTTL and requestBudget are the resolved knobs (the tenant's own
	// values, or the options when unset).
	staleTTL      time.Duration
	requestBudget time.Duration
}

// stateFor resolves the serving state for a request: the tenant's when the
// context carries one, the default otherwise. The no-tenant path costs one
// context lookup and no allocation — the warm-path budgets pin that — and a
// built tenant's costs one lock-free map load more. A tenant's first
// requests build its state once, under tenantsMu: a racing loser would
// register a gate whose counters the registry then reads in place of the
// winner's.
func (m *middleware) stateFor(r *http.Request) *tenantState {
	t, ok := tenant.FromContext(r.Context())
	if !ok {
		return &m.def
	}
	if v, ok := m.tenants.Load(t.Name); ok {
		return v.(*tenantState)
	}
	m.tenantsMu.Lock()
	defer m.tenantsMu.Unlock()
	if v, ok := m.tenants.Load(t.Name); ok {
		return v.(*tenantState)
	}
	ts := &tenantState{}
	m.initState(ts, t)
	m.tenants.Store(t.Name, ts)
	return ts
}

// budget resolves a tenant cache's byte budget, "tenant value, else
// option": zero keeps def, the default state's budget, and a negative value
// means unbounded (0 in cachestore terms).
func budget(tenantBytes, def int64) int64 {
	switch {
	case tenantBytes == 0:
		return def
	case tenantBytes < 0:
		return 0
	}
	return tenantBytes
}

// initState is the one constructor of serving state. Every knob resolves
// "tenant value, else option", and the default state is the tenant with
// nothing set (t == nil), instrumented as "middleware.*" (or "server.*").
// A tenant's state is instrumented as "tenant.<name>.*". Every state owns
// its stores outright — their bytes, eviction order and budget — so one
// tenant filling its caches cannot evict a neighbour's entries.
func (m *middleware) initState(ts *tenantState, t *tenant.Tenant) {
	o, root, prefix := &m.opts, t == nil, m.prefix
	if root {
		t = &tenant.Tenant{}
	} else {
		ts.name, prefix = t.Name, "tenant."+t.Name+"."
	}
	if o.MaxRenderBytes >= 0 {
		ts.renders = cachestore.New(cachestore.Options[*renderEntry]{
			MaxBytes:  budget(t.BudgetBytes, cmp.Or(o.MaxRenderBytes, defaultRenderBytes)),
			SizeOf:    renderEntrySize,
			Telemetry: o.Telemetry,
			Name:      prefix + "renders",
		})
	}
	maxInflight := o.MaxInflight
	if t.MaxInflight != 0 {
		maxInflight = t.MaxInflight
	}
	if maxInflight > 0 {
		ts.gate = resilience.NewGate(resilience.GateOptions{
			MaxInflight: maxInflight,
			Telemetry:   o.Telemetry,
			Name:        prefix + "gate",
		})
	}
	ts.requestBudget = o.RequestBudget
	if t.RequestBudget > 0 {
		ts.requestBudget = t.RequestBudget
	}
	if m.content != nil {
		ts.src = m.content
		return // Content answers every lookup, and nothing else is kept
	}
	ts.src = &probeSource{m: m, ts: ts}

	// A tenant's budget does not reach its probe cache: every state's holds
	// maxProbeEntries × probeBaseCost.
	ts.probes = cachestore.New(cachestore.Options[probe]{
		// A probe without a retained stylesheet body costs exactly
		// probeBaseCost, so for ordinary entries MaxBytes stays the entry
		// count maxProbeEntries promises; cached CSS bodies are charged
		// their real bytes on top, so large stylesheets consume
		// proportionally more of the same budget instead of hiding
		// behind a flat per-entry unit.
		MaxBytes:  int64(m.tune.maxProbeEntries) * probeBaseCost,
		SizeOf:    func(_ string, p probe) int64 { return probeBaseCost + int64(len(p.cssBody)) },
		Telemetry: o.Telemetry,
		Name:      prefix + "probes",
	})
	ts.staleTTL = staleFor
	if t.StaleFor > 0 {
		ts.staleTTL = t.StaleFor
	}
	if t.StaleFor >= 0 {
		// Stale copies get half the tenant's budget.
		half := t.BudgetBytes / 2
		if t.BudgetBytes < 0 {
			half = -1
		}
		ts.stales = cachestore.New(cachestore.Options[*staleEntry]{
			MaxBytes:  budget(half, bodyStoreBudget),
			SizeOf:    staleEntrySize,
			Telemetry: o.Telemetry,
			Name:      prefix + "stales",
		})
	}
	// The breaker is wired, never built here: the tenant's own, or
	// OriginBreaker for the default state — never shared across tenants.
	ts.breaker = t.Breaker
	if root {
		ts.breaker = o.OriginBreaker
	}
}

type probe struct {
	tag     etag.Tag
	cssBody string
	isCSS   bool
	ok      bool
	// received marks a tag the inner handler sent in an Etag header — the
	// only kind a re-probe may name in If-None-Match. A tag derived from
	// the body (etag.ForBytes) is one the origin has never seen.
	received bool
	expires  time.Time
	// fails counts consecutive failed probes of this path; at the
	// breaker threshold the entry's expiry is pushed out to the cooldown.
	fails int
}

// serveInner runs the inner handler, converting a panic into a recovered
// flag so one bad request handler can never take the whole server down.
func (m *middleware) serveInner(w http.ResponseWriter, r *http.Request) (panicked bool) {
	defer func() {
		if v := recover(); v != nil {
			m.metrics.PanicsRecovered.Add(1)
			panicked = true
		}
	}()
	m.next.ServeHTTP(w, r)
	return false
}

func (m *middleware) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if m.content != nil {
		m.content.srv.ServeDecorated(w, r, m)
		return
	}
	if r.URL.Path == WorkerPath && (r.Method == http.MethodGet || r.Method == http.MethodHead) {
		server.ServeWorkerScript(w, r)
		return
	}
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		if m.serveInner(w, r) {
			http.Error(w, "internal error", http.StatusInternalServerError)
		}
		return
	}

	pageURL := server.PageURL(r)
	ts := m.stateFor(r)
	ctx, adm, err := ts.admit(r.Context())
	defer adm.end()
	if adm.cancel != nil {
		r = r.WithContext(ctx) // the inner handler and the probes see the budget
	}
	if err != nil {
		m.shed(ts, w, r, pageURL, err)
		return
	}

	// Inner-handler circuit breaker: while open, don't error-proxy —
	// answer from the stale cache, or refuse honestly.
	if ts.breaker != nil && !ts.breaker.Allow(m.tune.clock.Now()) {
		if m.serveStale(ts, w, r, pageURL, "breaker-open") {
			return
		}
		m.serveReject(w, r, "breaker-open")
		return
	}

	// Single inner-handler execution through the sniffing writer: the
	// conditional headers are stripped so the handler produces the full
	// entity (the writer and the HTML path below re-apply them), and the
	// writer streams everything that is not a 200 HTML page. A 5xx is
	// held back when a stale substitute exists, so clients see the last
	// good copy instead of the error. The writer is pooled; nothing it
	// owns survives past the end of this function (see sniffPool).
	sw := newSniffWriter(w, r)
	defer sw.release()
	if ts.stales != nil {
		sw.staleOwner, sw.staleState, sw.stalePage = m, ts, pageURL
	}
	panicked, held := m.fetchPage(ts, sw, r, pageURL)
	if ts.breaker != nil {
		ts.breaker.Record(!panicked && sw.status < http.StatusInternalServerError, m.tune.clock.Now())
	}
	if panicked {
		if !sw.sentToDst {
			if m.serveStale(ts, w, r, pageURL, "panic") {
				return
			}
			http.Error(w, "internal error", http.StatusInternalServerError)
		}
		// Once bytes have streamed to the client the response cannot be
		// repaired; net/http closes the connection on the length
		// mismatch, which is exactly what a proxy would do.
		return
	}
	if sw.swallowed {
		// The writer swallowed a 5xx because a stale copy existed when
		// the status committed. Serve it; if it expired in the race,
		// replay the error honestly.
		if m.serveStale(ts, w, r, pageURL, "origin-error") {
			return
		}
		copyHeader(w.Header(), sw.header)
		w.WriteHeader(sw.status)
		return
	}
	if !sw.committed {
		// The handler wrote nothing: commit an empty response, matching
		// net/http's implicit 200.
		sw.WriteHeader(http.StatusOK)
		return
	}
	if held == nil && !sw.buffering {
		return // already streamed
	}

	// Budget check between stages: the page rendered, but there is no
	// time left to probe subresources and assemble the map. Serve the
	// HTML un-instrumented — late-but-plain beats later-and-decorated,
	// and the client simply falls back to ordinary caching.
	if resilience.BudgetSpent(r.Context()) {
		m.metrics.BudgetExhausted.Add(1)
		m.servePlain(w, r, sw, pageURL, held)
		return
	}

	// The rendered-page cache keeps each page URL's most recent render, so
	// the parse → extract → inject → hash pipeline runs once per body the
	// page changes to; probes stay per-request, so freshness is identical to
	// rebuilding from scratch. The histogram wraps the call rather than
	// deferring a closure — a closure per request is exactly the kind of
	// allocation this path exists to avoid.
	if m.htmlNS == nil {
		m.serveHTML(ts, w, r, sw, pageURL, held)
		return
	}
	htmlStart := time.Now()
	m.serveHTML(ts, w, r, sw, pageURL, held)
	m.htmlNS.Observe(time.Since(htmlStart).Nanoseconds())
}

// fetchPage runs the inner handler for the request into sw and reports
// whether it panicked. For a page the render cache holds, the request carries
// If-None-Match with the validator the handler issued, and the writer
// captures a 304. That 304 is believed only if it names no Etag or the one
// sent, and then fetchPage returns the held entry: the handler vouched for
// the page held, which is served without a body crossing the writer. A 304
// naming another tag means the handler holds something else, and a 200 page
// answering a HEAD has no body to decorate (and must never be rendered as the
// empty document it is): either is answered by one unconditional GET in the
// same request, as in fetchProbe. Every other outcome returns nil and is
// served as if the page had never been held.
func (m *middleware) fetchPage(ts *tenantState, sw *sniffWriter, r *http.Request, pageURL string) (panicked bool, held *renderEntry) {
	var inm []string
	if ts.renders != nil {
		if held, _ = ts.renders.Peek(pageURL); held != nil {
			inm = held.inm
		}
	}
	panicked = m.serveInner(sw, sw.innerRequest(r, r.Method, inm))
	if !panicked && sw.captured {
		if sw.status == http.StatusNotModified {
			v := sw.header.Get("Etag")
			if tag, ok := etag.Parse(v); v == "" || ok && tag == held.tag {
				m.metrics.PageRevalidated.Add(1)
				telemetry.Event(r.Context(), "page-revalidated", pageURL)
				return false, held
			}
		}
		sw.rewind()
		panicked = m.serveInner(sw, sw.innerRequest(r, http.MethodGet, nil))
	}
	if !panicked && sw.buffering {
		m.metrics.PageFetched.Add(1)
	}
	return panicked, nil
}

// serveHTML decorates and delivers a page: the buffered 200 HTML entity, or
// — when held is set — the held render, which the inner handler has just
// answered 304 for. On a fully-warm unchanged page — render hit, cached
// encoding still valid, no conditionals — this function acquires no mutex
// and allocates nothing when the page was downloaded, and only the header
// merge's one value array when it was revalidated: every header value
// it writes was precomputed when the render or encoding was cached.
func (m *middleware) serveHTML(ts *tenantState, w http.ResponseWriter, r *http.Request, sw *sniffWriter, pageURL string, held *renderEntry) {
	ctx, span := telemetry.BeginSpan(r.Context(), "middleware")
	defer span.End()
	ent := held
	if held != nil {
		// The Get counts the serve against the render cache, as render's
		// lookup does, and keeps the entry recent.
		ts.renders.Get(pageURL)
	} else {
		ent = m.render(ts, pageURL, sw.body(), sw.header)
	}
	h := w.Header()
	if held != nil {
		// The held 200's header, updated from the 304 (RFC 9111 §4.3.4).
		headers.MergeNotModified(h, held.header, sw.header)
	} else {
		for k, vs := range sw.header {
			if k == "Content-Length" || k == "Etag" {
				continue
			}
			h[k] = vs
		}
	}
	m.serveDecorated(ctx, ts, w, r, pageURL, ent, "")
}

// ServePage implements server.Decorator: with the page's content headers
// written, it goes straight to the render, behind the same admission and
// ladder (see shed). The budget bounds the resolve alone: there is no inner
// handler to wait for, and so no stage boundary to check it at first.
func (m *middleware) ServePage(ctx context.Context, w http.ResponseWriter, r *http.Request, pageURL string, res *server.Resource, session string) (status, n, entries int, served bool) {
	ts := m.stateFor(r)
	ctx, adm, err := ts.admit(ctx)
	defer adm.end()
	if err != nil {
		return http.StatusServiceUnavailable, 0, 0, m.shed(ts, w, r, pageURL, err)
	}
	status, n, entries = m.serveDecorated(ctx, ts, w, r, pageURL, m.content.render(ts, pageURL, res), session)
	return status, n, entries, true
}

// admission is what admit holds for one request until its end.
type admission struct {
	gate   *resilience.Gate   // the slot to release; nil when none was taken
	cancel context.CancelFunc // the budget's; nil without one
}

// admit is the one admission step of a decorated page. The request budget
// comes first: the whole instrumented serve — inner handler, probe fan-out,
// map assembly — happens inside one wall-clock allowance, and stages read the
// remainder off the returned context (the fan-out stops issuing probes once
// it is spent). Then the gate: only instrumented GET/HEAD traffic is gated —
// it is the traffic with probe amplification (one page fanning out to N
// subresource probes), which is what melts a saturated inner handler. A
// non-nil error is the gate's refusal, which the caller routes down the
// degradation ladder (shed); the caller defers the admission's end either
// way.
func (ts *tenantState) admit(ctx context.Context) (context.Context, admission, error) {
	var a admission
	if ts.requestBudget > 0 {
		ctx, a.cancel = resilience.WithBudget(ctx, ts.requestBudget)
	}
	if ts.gate != nil {
		if err := ts.gate.AcquireSlot(ctx); err != nil {
			return ctx, a, err
		}
		a.gate = ts.gate
	}
	return ctx, a, nil
}

// end releases the slot and the budget.
func (a admission) end() {
	if a.gate != nil {
		a.gate.Release()
	}
	if a.cancel != nil {
		a.cancel()
	}
}

// serveDecorated is the pipeline from the render on, whatever the source:
// map, Etag, stale copy, decisions, conditional answer and body, under the
// page's other headers, which w's header carries already. session names
// the recording session whose extras the map carries ("" for none).
// It reports the status and body bytes written and the map's entry count.
func (m *middleware) serveDecorated(ctx context.Context, ts *tenantState, w http.ResponseWriter, r *http.Request, pageURL string, ent *renderEntry, session string) (status, n, entries int) {
	h := w.Header()
	hdr, entries, decision := m.mapFor(ctx, ts, r, pageURL, ent, session)
	switch decision {
	case "map-built":
		m.metrics.MapsBuilt.Add(1)
		m.metrics.MapBytes.Add(int64(core.WireSizeOf(hdr[0])))
	case "map-reused":
		m.metrics.EncodeReuses.Add(1)
	case "hotmap-adopt":
		m.metrics.HotMapHits.Add(1)
	}
	h[HeaderName] = hdr
	h["Etag"] = ent.EtagHeader
	m.recordStale(ts, pageURL, ent, hdr[0], h)
	m.decide(ctx, h, decision, pageURL)

	if !etag.NoneMatch(r.Header.Get("If-None-Match"), ent.Tag) {
		m.decide(ctx, h, "etag-match", pageURL)
		w.WriteHeader(http.StatusNotModified)
		return http.StatusNotModified, 0, entries
	}
	m.decide(ctx, h, "network", pageURL)
	return http.StatusOK, server.WriteEntity(w, r, ent.Body, ent.ClenHeader), entries
}

// mapFor is the one map path, whatever the source: it returns ent's
// X-Etag-Config value, its entry count, and the decision naming how it was
// come by. The render's slotted map is reused while every lookup it rests on
// still answers as it did ("map-reused"). Else a probe source may adopt a
// cluster peer's encoding of this exact entity ("hotmap-adopt"), which has no
// evidence behind it here, so it serves this response only and never enters
// the slot; and otherwise the references are resolved through the source
// ("map-built"), bounded and encoded, and slotted unless the request is
// done — a cancelled or out-of-budget resolve may be a prefix of the real map
// — or the lookups moved while it was resolved, when the next request would
// only rebuild it. A freshly slotted map is published to the cluster. A
// recording session's extras ride on top of a reused or built map.
func (m *middleware) mapFor(ctx context.Context, ts *tenantState, r *http.Request, pageURL string, ent *renderEntry, session string) ([]string, int, string) {
	now := m.tune.clock.Now()
	rm, decision := ent.slot.Load(), "map-reused"
	if rm == nil || !rm.verify(ts.src, now, nil) {
		if peerEnc, ok := m.exchangeLookup(ts, pageURL, ent, now); ok {
			return []string{peerEnc}, 0, "hotmap-adopt"
		}
		etags, seen := resolve(ctx, r, ent.Refs, ts.src, m.build)
		enc := m.encode(etags) // trims etags to what it encodes
		rm = &resolved{hdr: []string{enc}, entries: len(etags), seen: seen}
		if m.content != nil && m.content.rec != nil {
			rm.base = etags
		}
		var until time.Time
		if ctx.Err() == nil && rm.verify(ts.src, m.tune.clock.Now(), &until) {
			ent.slot.Store(rm)
			m.publish(ts, pageURL, ent, rm, until, now)
		}
		decision = "map-built"
	}
	// Recorded extras are per session, so they ride on top of the shared
	// map for this response only and never enter the slot. Only a server's
	// recorder names a session.
	if session != "" {
		if extra := m.content.withRecorded(rm.base, session, pageURL); extra != nil {
			enc := m.encode(extra)
			return []string{enc}, len(extra), decision
		}
	}
	return rm.hdr, rm.entries, decision
}

// encode is every map's encoding within the map bound (encodeMap), counting
// the entries the bound drops.
func (m *middleware) encode(etags core.ETagMap) string {
	enc, dropped := encodeMap(etags, m.tune.maxMapBytes)
	if dropped > 0 {
		m.metrics.MapEntriesDropped.Add(int64(dropped))
	}
	return enc
}

// publish gossips a freshly slotted map to the cluster, so peers serving
// this page skip their own probe fan-out entirely, announced until the
// earliest expiry among the probes it rests on: one probe TTL from now when
// it rests on none (a page with no same-origin refs).
func (m *middleware) publish(ts *tenantState, pageURL string, ent *renderEntry, rm *resolved, until, now time.Time) {
	ex := m.opts.Exchange
	if ex == nil {
		return
	}
	if until.IsZero() {
		until = now.Add(probeTTL)
	}
	ex.Publish(ts.name, pageURL, ent.TagStr, rm.hdr[0], until.UnixNano())
}

// decide records one cache decision on the request trace and, with
// MiddlewareOptions.ServerTiming, in the response's Server-Timing header.
func (m *middleware) decide(ctx context.Context, h http.Header, name, detail string) {
	server.Decide(ctx, h, m.opts.ServerTiming, name, detail)
}

// probeSource is the mapSource in front of any handler: every lookup is a
// probe, fetched when the cache does not hold it unexpired, and a recorded
// lookup is answered only by a probe that is held, until it expires.
type probeSource struct {
	m  *middleware
	ts *tenantState
}

// cached makes the resolve a core.CachingResolver: a path whose probe is
// cached and unexpired is answered without a flight, so the resolve looks
// it up inline instead of on a fan-out goroutine.
func (p *probeSource) cached(path string) bool {
	pr, ok := p.ts.probes.Peek(path)
	return ok && p.m.tune.clock.Now().Before(pr.expires)
}

// lookup extracts a stylesheet's references from the probe's held text.
func (p *probeSource) lookup(ctx context.Context, r *http.Request, path string, sheet bool) (etag.Tag, bool, []core.Ref) {
	pr := p.m.probe(p.ts, path, r, ctx)
	if !sheet || !pr.ok || !pr.isCSS {
		return pr.tag, pr.ok, nil
	}
	return pr.tag, true, extractCSSRefs(path, pr.cssBody)
}

func (p *probeSource) recheck(path string, _ bool) (etag.Tag, bool, time.Time) {
	pr, held := p.ts.probes.Peek(path)
	if !held {
		return etag.Tag{}, false, time.Time{}
	}
	return pr.tag, pr.ok, pr.expires
}

// probe returns the cached probe result for path, or asks the inner handler
// (fetchProbe: a revalidation when the cache still holds the tag the handler
// issued, a GET otherwise). Concurrent probes of the same expired path are
// collapsed by singleflight into one inner-handler call — under a thundering
// herd of page renders each subresource is probed once, not once per render.
// Failed probes trip a per-path circuit breaker: after breakerThreshold
// consecutive failures the path is left alone (and out of the map) for
// breakerCooldown, so an inner handler erroring on one path is not hammered
// on every page render.
func (m *middleware) probe(ts *tenantState, path string, via *http.Request, ctx context.Context) probe {
	if pr, ok := ts.probes.Get(path); ok && m.tune.clock.Now().Before(pr.expires) {
		return pr
	}
	telemetry.Event(ctx, "probe", path)
	pr, _, _ := ts.probes.Do(path, func() (probe, error) {
		// Re-check inside the flight: the flight we queued behind may
		// have refreshed the entry already.
		prev, had := ts.probes.Peek(path)
		if had && m.tune.clock.Now().Before(prev.expires) {
			return prev, nil
		}
		pr := m.fetchProbe(ctx, path, via, prev)
		if !pr.ok {
			pr.fails = prev.fails + 1
			if pr.fails >= breakerThreshold {
				pr.expires = m.tune.clock.Now().Add(breakerCooldown)
				m.metrics.BreakerTrips.Add(1)
				telemetry.Event(ctx, "breaker-open", path)
			}
		}
		ts.probes.Put(path, pr)
		return pr, nil
	})
	return pr
}

// fetchProbe asks the inner handler for path's current validator and
// reports what it learned, good for probeTTL. prev is what the probe cache
// held (the zero probe for a never-seen or evicted path). When prev was a
// success whose tag the handler itself issued, the probe is a revalidation:
// it carries If-None-Match with that tag, verbatim, and a 304 renews prev —
// same tag, same stylesheet body — without a body crossing the handler's
// writer. The 304 is believed only if it names no Etag or the one sent; one
// naming another tag is answered by a single unconditional GET in the same
// flight. Anything but a 200 to that GET — an unsolicited 304 included — is
// a failed probe.
//
// Subresource keys come out of upstream HTML and are hostile input: one that
// does not parse as a request target is a failed probe like any other, and a
// panic anywhere in the flight — which runs on a fan-out worker goroutine,
// out of reach of net/http's recover — is recovered into a failed probe too.
// trace is the serving request's context, used for trace events only.
func (m *middleware) fetchProbe(trace context.Context, path string, via *http.Request, prev probe) (pr probe) {
	defer func() {
		if v := recover(); v != nil {
			m.metrics.PanicsRecovered.Add(1)
			pr = probe{expires: pr.expires}
		}
	}()
	pr.expires = m.tune.clock.Now().Add(probeTTL)
	u, err := url.ParseRequestURI(path)
	if err != nil {
		return pr
	}
	// The flight is shared by every render waiting on this path, so it must
	// not die with the request that happened to start it: of the serving
	// request's context only the tenant carries over, so a tenant-routing
	// inner handler (catalystd's multi-origin proxy) probes the right
	// upstream.
	ctx := context.Background()
	if t, ok := tenant.FromContext(via.Context()); ok {
		ctx = tenant.NewContext(ctx, t)
	}
	pw := probeWriterPool.Get().(*probeWriter)
	defer pw.release()
	// serve runs one probe request through the inner handler into pw and
	// reports whether it panicked.
	serve := func(inm string) bool {
		req := (&http.Request{
			Method:     http.MethodGet,
			URL:        u,
			Proto:      "HTTP/1.1",
			ProtoMajor: 1,
			ProtoMinor: 1,
			Header:     make(http.Header, 1),
			Body:       http.NoBody,
			Host:       via.Host,
			RequestURI: path,
			RemoteAddr: via.RemoteAddr,
		}).WithContext(ctx)
		if inm != "" {
			req.Header["If-None-Match"] = []string{inm}
		}
		if m.serveInner(pw, req) {
			return true
		}
		if pw.status == 0 {
			pw.WriteHeader(http.StatusOK) // the handler wrote nothing: net/http's implicit 200
		}
		return false
	}

	// Only a tag the handler itself issued may be named back to it.
	inm := ""
	if prev.ok && prev.received {
		inm = prev.tag.String()
	}
	if serve(inm) {
		return pr
	}
	if inm != "" && pw.status == http.StatusNotModified {
		if !pw.hasEtag || (pw.tagOK && pw.tag == prev.tag) {
			m.metrics.ProbeRevalidated.Add(1)
			telemetry.Event(trace, "probe-revalidated", path)
			prev.expires, prev.fails = pr.expires, 0
			return prev
		}
		// The handler vouched for a tag other than the one it was asked
		// about, so what it holds is not what prev describes. Ask once
		// more, for the entity itself.
		pw.reset()
		if serve("") {
			return pr
		}
	}
	if pw.status != http.StatusOK {
		return pr
	}
	m.metrics.ProbeFetched.Add(1)
	if pw.tagOK {
		pr.tag, pr.received = pw.tag, true
	} else {
		// The inner handler emits no validator; derive one the way the
		// modified Caddy derives tags from file contents.
		pr.tag = etag.ForBytes(pw.buf.Bytes())
	}
	pr.ok = true
	if pw.isCSS {
		pr.isCSS = true
		pr.cssBody = pw.buf.String()
	}
	return pr
}

var _ http.Handler = (*middleware)(nil)
