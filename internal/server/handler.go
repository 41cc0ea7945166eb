package server

import (
	"context"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"cachecatalyst/internal/core"
	"cachecatalyst/internal/etag"
	"cachecatalyst/internal/headers"
	"cachecatalyst/internal/telemetry"
	"cachecatalyst/internal/vclock"
)

// Options configures a Server.
type Options struct {
	// Record enables the §3 alternative: per-session recording of
	// first-visit resource URLs, which a Decorator folds into later ETag
	// maps so that JS-discovered resources are covered on revisits.
	Record bool
	// CrossOriginETag, when set, puts third-party subresources in the maps
	// a Decorator attaches (core.BuildOptions.CrossOriginETag).
	CrossOriginETag func(absURL string) (etag.Tag, bool)
	// Clock supplies Date headers; nil means the system clock.
	Clock vclock.Clock
	// AccessLogSize keeps a ring of the most recent requests for the
	// debug/metrics endpoint; 0 disables access logging.
	AccessLogSize int
	// Telemetry, when set, indexes the server's counters and a
	// serve-latency histogram in the given registry under "server.*". The
	// registry reads the same storage Metrics does.
	Telemetry *telemetry.Registry
	// ServerTiming mirrors each response's cache decisions into a
	// Server-Timing header, the back-channel clients use to annotate
	// their request traces with origin-side decisions.
	ServerTiming bool
	// EarlyHints advertises each HTML page's statically extractable
	// subresources as "Link: <url>; rel=preload" response headers — the
	// content of a 103 Early Hints interim response. The simulator's
	// transport (netsim.FetchWithHints) models the interim response
	// racing ahead of the HTML body; on real sockets a front-end would
	// translate the headers into an actual 103. Undecorated pages only.
	EarlyHints bool
}

// Metrics counts server activity. All fields are atomic telemetry
// counters: the real net/http path serves concurrently, and a registry
// passed in Options.Telemetry indexes these same instruments.
type Metrics struct {
	Requests    telemetry.Counter
	NotModified telemetry.Counter
	NotFound    telemetry.Counter
	BodyBytes   telemetry.Counter
	// HintsSent counts responses that carried Link preload headers
	// (Options.EarlyHints).
	HintsSent telemetry.Counter
}

// Server is the web server under study. It implements http.Handler.
type Server struct {
	content  Content
	opts     Options
	recorder *Recorder
	access   *accessLog
	serveNS  *telemetry.Histogram       // nil without telemetry
	dateHdr  atomic.Pointer[dateHeader] // per-second Date value cache
	Metrics  Metrics
}

// Decorator is a decorating front end in front of a Server
// (catalyst.Middleware): ServeDecorated hands it every HTML page, and serves
// the Service-Worker script, which only a decorated site has.
type Decorator interface {
	// ServePage answers r for the HTML page res at page, whose content
	// headers (and a new recording session's cookie) w's header carries
	// already; session is the recording session ("" for none) and ctx the
	// serving context. It reports the status and body bytes written and the
	// map's entry count — or served false, having written only header
	// fields, to have the Server serve the page undecorated.
	ServePage(ctx context.Context, w http.ResponseWriter, r *http.Request, page string, res *Resource, session string) (status, n, mapEntries int, served bool)
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
	s := &Server{content: content, opts: opts}
	if opts.Record {
		s.recorder = NewRecorder()
	}
	if opts.AccessLogSize > 0 {
		s.access = newAccessLog(opts.AccessLogSize)
	}
	if opts.Telemetry != nil {
		opts.Telemetry.RegisterCounter("server.requests", &s.Metrics.Requests)
		opts.Telemetry.RegisterCounter("server.not_modified", &s.Metrics.NotModified)
		opts.Telemetry.RegisterCounter("server.not_found", &s.Metrics.NotFound)
		opts.Telemetry.RegisterCounter("server.body_bytes", &s.Metrics.BodyBytes)
		opts.Telemetry.RegisterCounter("server.hints_sent", &s.Metrics.HintsSent)
		s.serveNS = opts.Telemetry.Histogram("server.serve_ns")
	}
	return s
}

// Options returns the options the server was built with.
func (s *Server) Options() Options { return s.opts }

// Telemetry returns the registry the server was wired into, or nil.
func (s *Server) Telemetry() *telemetry.Registry { return s.opts.Telemetry }

// Content returns the content source the server serves.
func (s *Server) Content() Content { return s.content }

// Recorder returns the session recorder, or nil when recording is off.
func (s *Server) Recorder() *Recorder { return s.recorder }

// ServeHTTP implements http.Handler: every response, HTML pages included, is
// the content as it is.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.ServeDecorated(w, r, nil) }

// ServeDecorated is ServeHTTP with d, when not nil, serving the HTML pages.
// Each response's cache decisions are recorded on the request trace (when
// the context carries one) and, with Options.ServerTiming, mirrored into a
// Server-Timing header so clients can annotate their own traces with the
// origin's view.
func (s *Server) ServeDecorated(w http.ResponseWriter, r *http.Request, d Decorator) {
	// The latency observation wraps serve as a plain call rather than a
	// deferred closure: the closure (and its captured start) would cost an
	// allocation on every instrumented request.
	if s.serveNS == nil {
		s.serve(w, r, d)
		return
	}
	start := time.Now()
	s.serve(w, r, d)
	s.serveNS.Observe(time.Since(start).Nanoseconds())
}

// decide records one cache decision everywhere it is observable: the
// request trace, and — before the status line is committed — the
// response's Server-Timing header. A method rather than a per-request
// closure; the closure allocated on every serve.
func (s *Server) decide(ctx context.Context, h http.Header, name, detail string) {
	Decide(ctx, h, s.opts.ServerTiming, name, detail)
}

func (s *Server) serve(w http.ResponseWriter, r *http.Request, d Decorator) {
	ctx := r.Context()
	ctx, span := telemetry.BeginSpan(ctx, "server")
	defer span.End()
	h := w.Header()

	s.Metrics.Requests.Add(1)
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		s.logAccess(r, http.StatusMethodNotAllowed, 0, 0)
		return
	}
	p := PageURL(r)

	if d != nil && p == core.ServiceWorkerPath {
		s.decide(ctx, h, "sw-script", p)
		h["Date"] = s.dateHeaderValue()
		status, n := ServeWorkerScript(w, r)
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
	sessionID := ""
	if s.recorder != nil {
		sessionID = s.recorder.SessionID(w, r)
	}

	isHTML := IsHTML(res.ContentType)
	if d != nil && isHTML {
		if status, n, entries, served := d.ServePage(ctx, w, r, p, res, sessionID); served {
			s.count(status, n)
			s.logAccess(r, status, n, entries)
			return
		}
	}

	if links := s.hintsFor(isHTML, p, res); len(links) > 0 {
		h["Link"] = links
		s.Metrics.HintsSent.Add(1)
		s.decide(ctx, h, "hints", p)
	}
	if s.recorder != nil && !isHTML {
		// Recording mode: remember which subresources this session's
		// page loads actually requested.
		s.recorder.RecordFetch(sessionID, r.Referer(), p)
	}
	h["Etag"] = rh.etag

	if headers.NotModified(r.Header, res.ETag, true, res.LastModified) {
		s.count(http.StatusNotModified, 0)
		s.decide(ctx, h, "etag-match", p)
		w.WriteHeader(http.StatusNotModified)
		s.logAccess(r, http.StatusNotModified, 0, 0)
		return
	}
	s.decide(ctx, h, "network", p)
	n := WriteEntity(w, r, res.Body, rh.clen)
	s.count(http.StatusOK, n)
	s.logAccess(r, http.StatusOK, n, 0)
}

// count adds a served response to Metrics: a 304 to NotModified, the body
// bytes of any other to BodyBytes.
func (s *Server) count(status, n int) {
	if status == http.StatusNotModified {
		s.Metrics.NotModified.Add(1)
		return
	}
	s.Metrics.BodyBytes.Add(int64(n))
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

// preloadHints is a page's early-hints Link values at one path.
type preloadHints struct {
	page  string
	links []string
}

// hintsFor returns res's early-hints Link values at p (none without
// Options.EarlyHints or for a non-page), extracted once per page version
// and path and kept on the Resource; shared by responses, never written.
func (s *Server) hintsFor(isHTML bool, p string, res *Resource) []string {
	if !s.opts.EarlyHints || !isHTML {
		return nil
	}
	if h := res.hints.Load(); h != nil && h.page == p {
		return h.links
	}
	h := &preloadHints{page: p, links: preloadLinks(core.ExtractPageRefs(p, string(res.Body)))}
	res.hints.Store(h)
	return h.links
}
