package server

import (
	"context"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"cachecatalyst/internal/cachestore"
	"cachecatalyst/internal/core"
	"cachecatalyst/internal/decorate"
	"cachecatalyst/internal/delta"
	"cachecatalyst/internal/etag"
	"cachecatalyst/internal/headers"
	"cachecatalyst/internal/resilience"
	"cachecatalyst/internal/telemetry"
	"cachecatalyst/internal/vclock"
)

// Options configures a Server.
type Options struct {
	// Catalyst enables the paper's mechanism: X-Etag-Config on HTML
	// responses, Service-Worker registration injection, and serving the
	// worker script at core.ServiceWorkerPath.
	Catalyst bool
	// Record enables the §3 alternative: per-session recording of
	// first-visit resource URLs, folded into later ETag maps so that
	// JS-discovered resources are covered on revisits.
	Record bool
	// CrossOriginETag, when set, puts third-party subresources in the map
	// (core.BuildOptions.CrossOriginETag). The map is resolved sequentially,
	// and encoded within core.MaxEncodedMapBytes.
	CrossOriginETag func(absURL string) (etag.Tag, bool)
	// Clock supplies Date headers; nil means the system clock.
	Clock vclock.Clock
	// AccessLogSize keeps a ring of the most recent requests for the
	// debug/metrics endpoint; 0 disables access logging.
	AccessLogSize int
	// MaxRenderBytes bounds the rendered-page cache, which keeps one entry
	// per page URL — the extracted reference list, injected body, and
	// derived validator of the page's current version — so an unchanged page
	// skips re-parsing and re-hashing on every hit. Zero selects 16 MiB;
	// negative disables it.
	MaxRenderBytes int64
	// Telemetry, when set, indexes the server's counters, the
	// rendered-page cache's counters, and a serve-latency histogram in
	// the given registry under "server.*". The registry reads the same
	// storage Metrics does.
	Telemetry *telemetry.Registry
	// ServerTiming mirrors each response's cache decisions into a
	// Server-Timing header, the back-channel clients use to annotate
	// their request traces with origin-side decisions.
	ServerTiming bool
	// MaxInflight bounds how many ETag-map resolutions run concurrently —
	// the one stage of a request with fan-out amplification (a page's BFS
	// touches every subresource). A request refused a slot still serves
	// its HTML, just without the map: the client falls back to
	// conventional caching, which degrades latency, not correctness.
	// Zero disables the gate; a request waits at most 50 ms for a slot
	// before shedding the map.
	MaxInflight int
	// RequestBudget, when positive, deadlines each request's context; map
	// resolution inherits the remainder and stops issuing probes when it
	// is spent, so an overloaded server ships partial maps on time
	// instead of complete maps late.
	RequestBudget time.Duration
	// EarlyHints advertises each HTML page's statically extractable
	// subresources as "Link: <url>; rel=preload" response headers — the
	// content of a 103 Early Hints interim response. The simulator's
	// transport (netsim.FetchWithHints) models the interim response
	// racing ahead of the HTML body; on real sockets a front-end would
	// translate the headers into an actual 103. Works with or without
	// Catalyst.
	EarlyHints bool
	// Delta enables delta-encoded HTML (the catalyst-delta scheme): when
	// a request names a previous page version in X-Delta-Base and that
	// version's body is still in the delta base cache, the server
	// responds with a CCD1 patch (internal/delta) instead of the full
	// body, marked by X-Delta-From. Requires Catalyst (the scheme patches
	// the SW-cached copy). Previous page bodies are kept for diffing in a
	// store of decorate.BodyStoreBudget bytes.
	Delta bool
}

// Metrics counts server activity. All fields are atomic telemetry
// counters: the real net/http path serves concurrently, and a registry
// passed in Options.Telemetry indexes these same instruments.
type Metrics struct {
	Requests    telemetry.Counter
	NotModified telemetry.Counter
	NotFound    telemetry.Counter
	BodyBytes   telemetry.Counter
	// MapsBuilt counts ETag-map resolves; MapsReused counts HTML responses
	// whose map was the previous resolve's, re-verified (decorate.Resolved).
	// Together with MapSheds they add up to the HTML responses served with
	// Catalyst on.
	MapsBuilt  telemetry.Counter
	MapsReused telemetry.Counter
	// MapBytes accumulates the encoded X-Etag-Config sizes of the maps
	// MapsBuilt counts, the overhead the ablation benchmarks quantify:
	// MapBytes ÷ MapsBuilt is the mean header cost.
	MapBytes telemetry.Counter
	// MapSheds counts HTML responses served without a map because the
	// resolution gate (Options.MaxInflight) refused a slot in time.
	MapSheds telemetry.Counter
	// HintsSent counts responses that carried Link preload headers
	// (Options.EarlyHints).
	HintsSent telemetry.Counter
	// DeltasServed counts HTML responses answered with a CCD1 patch
	// instead of the full body; DeltaBytesSaved accumulates the size
	// difference (full body minus patch).
	DeltasServed    telemetry.Counter
	DeltaBytesSaved telemetry.Counter
}

// Server is the web server under study. It implements http.Handler.
type Server struct {
	content    Content
	opts       Options
	recorder   *Recorder
	access     *accessLog
	renders    *cachestore.Store[*pageRender] // nil when disabled
	renderMemo *RenderMemo                    // renders shared with a site's other servers; nil unless WithRenderMemo
	deltaBases *cachestore.Store[[]byte]      // previous page bodies; nil unless Options.Delta
	mapGate    *resilience.Gate               // map-resolution admission; nil when disabled
	serveNS    *telemetry.Histogram           // nil without telemetry
	dateHdr    atomic.Pointer[dateHeader]     // per-second Date value cache
	tune       tuning
	Metrics    Metrics
}

// tuning holds the map values no program sets: the resolve runs
// sequentially, and a map encodes within core.MaxEncodedMapBytes, the bound
// core.DecodeMap enforces. New sets these; only a test reaches other values
// (export_test.go).
type tuning struct {
	mapConcurrency int
	maxMapBytes    int
}

// dateHeader caches one second's worth of Date header value: HTTP dates
// have second granularity, so every request within the same second shares
// one formatted string (and one header value slice) instead of re-running
// time.Format per serve.
type dateHeader struct {
	unix int64
	val  []string
}

// dateHeaderValue returns the Date header value slice for the current
// clock second, shared across requests. The slice is assigned into header
// maps directly and must never be mutated in place.
func (s *Server) dateHeaderValue() []string {
	now := s.opts.Clock.Now()
	u := now.Unix()
	if c := s.dateHdr.Load(); c != nil && c.unix == u {
		return c.val
	}
	c := &dateHeader{unix: u, val: []string{headers.FormatHTTPDate(now)}}
	s.dateHdr.Store(c)
	return c.val
}

// New returns a server over content.
func New(content Content, opts Options) *Server {
	if opts.Clock == nil {
		opts.Clock = vclock.System{}
	}
	if opts.MaxRenderBytes == 0 {
		opts.MaxRenderBytes = 16 << 20
	}
	s := &Server{content: content, opts: opts, tune: tuning{mapConcurrency: 1, maxMapBytes: core.MaxEncodedMapBytes}}
	if opts.Record {
		s.recorder = NewRecorder()
	}
	if opts.AccessLogSize > 0 {
		s.access = newAccessLog(opts.AccessLogSize)
	}
	if opts.Catalyst && opts.MaxRenderBytes > 0 {
		s.renders = cachestore.New(cachestore.Options[*pageRender]{
			MaxBytes:  opts.MaxRenderBytes,
			SizeOf:    pageRenderSize,
			Telemetry: opts.Telemetry,
			Name:      "server.renders",
		})
	}
	if opts.Catalyst && opts.Delta {
		bases := decorate.BaseStoreOptions()
		bases.Telemetry, bases.Name = opts.Telemetry, "server.delta_bases"
		s.deltaBases = cachestore.New(bases)
	}
	if opts.MaxInflight > 0 {
		s.mapGate = resilience.NewGate(resilience.GateOptions{
			MaxInflight: opts.MaxInflight,
			Telemetry:   opts.Telemetry,
			Name:        "server.gate",
		})
	}
	if opts.Telemetry != nil {
		opts.Telemetry.RegisterCounter("server.requests", &s.Metrics.Requests)
		opts.Telemetry.RegisterCounter("server.not_modified", &s.Metrics.NotModified)
		opts.Telemetry.RegisterCounter("server.not_found", &s.Metrics.NotFound)
		opts.Telemetry.RegisterCounter("server.body_bytes", &s.Metrics.BodyBytes)
		opts.Telemetry.RegisterCounter("server.maps_built", &s.Metrics.MapsBuilt)
		opts.Telemetry.RegisterCounter("server.maps_reused", &s.Metrics.MapsReused)
		opts.Telemetry.RegisterCounter("server.map_bytes", &s.Metrics.MapBytes)
		opts.Telemetry.RegisterCounter("server.map_sheds", &s.Metrics.MapSheds)
		opts.Telemetry.RegisterCounter("server.hints_sent", &s.Metrics.HintsSent)
		opts.Telemetry.RegisterCounter("server.deltas_served", &s.Metrics.DeltasServed)
		opts.Telemetry.RegisterCounter("server.delta_bytes_saved", &s.Metrics.DeltaBytesSaved)
		s.serveNS = opts.Telemetry.Histogram("server.serve_ns")
	}
	return s
}

// Telemetry returns the registry the server was wired into, or nil.
func (s *Server) Telemetry() *telemetry.Registry { return s.opts.Telemetry }

// Content returns the content source the server serves.
func (s *Server) Content() Content { return s.content }

// Recorder returns the session recorder, or nil when recording is off.
func (s *Server) Recorder() *Recorder { return s.recorder }

// ServeHTTP implements http.Handler. Each response's cache decisions are
// recorded on the request trace (when the context carries one) and, with
// Options.ServerTiming, mirrored into a Server-Timing header so clients can
// annotate their own traces with the origin's view.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	// The latency observation wraps serve as a plain call rather than a
	// deferred closure: the closure (and its captured start) would cost an
	// allocation on every instrumented request.
	if s.serveNS == nil {
		s.serve(w, r)
		return
	}
	start := time.Now()
	s.serve(w, r)
	s.serveNS.Observe(time.Since(start).Nanoseconds())
}

// decide records one cache decision everywhere it is observable: the
// request trace, and — before the status line is committed — the
// response's Server-Timing header. A method rather than a per-request
// closure; the closure allocated on every serve.
func (s *Server) decide(ctx context.Context, h http.Header, name, detail string) {
	decorate.Decide(ctx, h, s.opts.ServerTiming, name, detail)
}

func (s *Server) serve(w http.ResponseWriter, r *http.Request) {
	ctx := r.Context()
	ctx, span := telemetry.BeginSpan(ctx, "server")
	defer span.End()
	if s.opts.RequestBudget > 0 {
		var cancel context.CancelFunc
		ctx, cancel = resilience.WithBudget(ctx, s.opts.RequestBudget)
		defer cancel()
	}
	h := w.Header()

	s.Metrics.Requests.Add(1)
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		s.logAccess(r, http.StatusMethodNotAllowed, 0, 0)
		return
	}
	p := decorate.PageURL(r)

	if s.opts.Catalyst && p == core.ServiceWorkerPath {
		s.decide(ctx, h, "sw-script", p)
		h["Date"] = s.dateHeaderValue()
		status, n := decorate.ServeWorkerScript(w, r)
		s.logAccess(r, status, n, 0)
		return
	}

	res, ok := s.content.Get(p)
	if !ok {
		s.Metrics.NotFound.Add(1)
		s.decide(ctx, h, "not-found", p)
		http.NotFound(w, r)
		s.logAccess(r, http.StatusNotFound, 0, 0)
		return
	}

	// Header values are precomputed slices assigned into the map directly
	// (one bucket write instead of render + canonicalize + slice alloc per
	// header per request). Nothing downstream mutates a stored value slice
	// in place, which is what makes sharing them safe.
	rh := res.headerValues()
	h["Date"] = s.dateHeaderValue()
	h["Content-Type"] = rh.ctype
	if rh.cacheControl != nil {
		h["Cache-Control"] = rh.cacheControl
	}
	if rh.lastModified != nil {
		h["Last-Modified"] = rh.lastModified
	}

	body := res.Body
	tag := res.ETag
	etagHdr := rh.etag
	clenHdr := rh.clen
	sessionID := ""
	mapEntries := 0
	if s.recorder != nil {
		sessionID = s.recorder.SessionID(w, r)
	}

	// deltaBase holds the previous page body a patch may be computed
	// against; set only when the client named a base we still have.
	var deltaBase []byte
	var deltaFrom string

	isHTML := decorate.IsHTML(res.ContentType)
	var pr *pageRender
	if s.opts.Catalyst && isHTML {
		pr = s.renderPage(p, res)
	}

	if s.opts.EarlyHints && isHTML {
		// Plain early-hints mode has no render to read the references off.
		var refs []core.Ref
		if pr != nil {
			refs = pr.Refs
		} else {
			refs = core.ExtractPageRefs(p, string(res.Body))
		}
		if decorate.AddPreloadLinks(h, refs) {
			s.Metrics.HintsSent.Add(1)
			s.decide(ctx, h, "hints", p)
		}
	}

	if pr != nil {
		body = pr.Body
		tag = pr.Tag
		etagHdr = pr.EtagHeader
		clenHdr = pr.ClenHeader
		deltaBase, deltaFrom = decorate.DeltaBase(s.deltaBases, r, p, &pr.Render)
		mapEntries = s.attachMap(ctx, h, p, pr, sessionID)
	} else if s.recorder != nil && !isHTML {
		// Recording mode: remember which subresources this session's
		// page loads actually requested.
		s.recorder.RecordFetch(sessionID, r.Referer(), p)
	}

	h["Etag"] = etagHdr

	if s.notModified(r, tag, res.LastModified) {
		s.Metrics.NotModified.Add(1)
		s.decide(ctx, h, "etag-match", p)
		w.WriteHeader(http.StatusNotModified)
		s.logAccess(r, http.StatusNotModified, 0, mapEntries)
		return
	}

	// The diff is computed only on the 200 path: a 304 (the client's
	// validator still matches) never needs one.
	if patch, ok := decorate.Patch(deltaBase, body); ok {
		s.Metrics.DeltasServed.Add(1)
		s.Metrics.DeltaBytesSaved.Add(int64(len(body) - len(patch)))
		h.Set(delta.FromHeader, deltaFrom)
		s.decide(ctx, h, "delta", p)
		body, clenHdr = patch, nil
	}

	s.decide(ctx, h, "network", p)
	n := decorate.WriteEntity(w, r, body, clenHdr)
	s.Metrics.BodyBytes.Add(int64(n))
	s.logAccess(r, http.StatusOK, n, mapEntries)
}

// notModified evaluates the request's conditional headers per RFC 9110
// §13.2.2 precedence: If-None-Match wins when present; If-Modified-Since is
// only consulted otherwise.
func (s *Server) notModified(r *http.Request, tag etag.Tag, lastModified time.Time) bool {
	if inm := r.Header.Get("If-None-Match"); inm != "" {
		return !etag.NoneMatch(inm, tag)
	}
	ims := r.Header.Get("If-Modified-Since")
	if ims == "" || lastModified.IsZero() {
		return false
	}
	t, ok := headers.ParseHTTPDate(ims)
	if !ok {
		return false
	}
	// HTTP dates have second granularity; truncate before comparing.
	return !lastModified.Truncate(time.Second).After(t)
}

// resourceHeaders is the wire-format rendering of a Resource's header
// fields, built once per Resource (see Resource.hdr) so the serve path
// assigns shared slices instead of re-formatting per request. The slices
// are shared across responses and must never be mutated in place.
type resourceHeaders struct {
	tagStr       string
	etag         []string
	ctype        []string
	cacheControl []string // nil when the policy emits no Cache-Control
	lastModified []string // nil when the resource has no Last-Modified
	clen         []string // Content-Length of the stored body
}

// headerValues returns the resource's cached header rendering, building it
// on first use. Safe for concurrent callers: racing builders compute
// identical values and the last store wins.
func (r *Resource) headerValues() *resourceHeaders {
	if h := r.hdr.Load(); h != nil {
		return h
	}
	h := &resourceHeaders{
		tagStr: r.ETag.String(),
		ctype:  []string{r.ContentType},
		clen:   []string{strconv.Itoa(len(r.Body))},
	}
	h.etag = []string{h.tagStr}
	if cc := r.Policy.CacheControl(); cc != "" {
		h.cacheControl = []string{cc}
	}
	if !r.LastModified.IsZero() {
		h.lastModified = []string{headers.FormatHTTPDate(r.LastModified)}
	}
	r.hdr.Store(h)
	return h
}

// pageRender is the server's cached render: the shared, immutable
// decorate.Render, the Content validator of the page it was rendered from,
// and the one mutable slot both front ends add — the last ETag map resolved
// for this render (decorate.Slot).
type pageRender struct {
	decorate.Render
	src      etag.Tag
	resolved decorate.Slot
}

// pageRenderSize charges the render alone. The map slot is deliberately not
// charged, for the reason the middleware's is not: it is bounded by the
// references the render already pays for, and it mutates after insertion,
// which byte accounting must not chase.
func pageRenderSize(key string, pr *pageRender) int64 {
	return decorate.RenderSize(key, &pr.Render)
}

// renderPage returns the page's render from the store's one entry per page
// URL. The entry answers while it was rendered from the version of the page
// Content serves now — the validator commits to the body — so a warm hit is
// one lookup and one tag compare, allocating nothing. A changed page is
// rendered under the store's singleflight for the URL and replaces the
// entry; a caller that waited on the flight of another version asks again.
func (s *Server) renderPage(p string, res *Resource) *pageRender {
	if s.renders == nil {
		return s.newPageRender(p, res)
	}
	pr, ok := s.renders.Get(p)
	for !ok || pr.src != res.ETag {
		pr, _, _ = s.renders.Do(p, func() (*pageRender, error) {
			// A flight that landed between the lookup and this one may have
			// stored this version's render already.
			if cur, ok := s.renders.Peek(p); ok && cur.src == res.ETag {
				return cur, nil
			}
			pr := s.newPageRender(p, res)
			s.renders.Put(p, pr)
			return pr, nil
		})
		ok = true
	}
	return pr
}

func (s *Server) newPageRender(p string, res *Resource) *pageRender {
	return &pageRender{Render: s.renderMemo.render(p, res), src: res.ETag}
}
