package server

import (
	"net/http"
	"net/url"

	"cachecatalyst/internal/httpcache"
	"cachecatalyst/internal/netsim"
)

// NewOrigin adapts a *Server to the simulator's Origin interface, so
// discrete-event experiments exercise the same header logic as real
// deployments. The handler runs synchronously in zero simulated time;
// network costs are the transport model's job (TransportOptions.ServerThink
// charges processing time if desired).
//
// The response body is the one the server holds — the Resource's body, the
// render's, or a freshly computed patch — handed over by decorate.WriteEntity
// without a copy. None of them is written after it is served, which is the
// ownership rule the browser's caches and parsers rely on when they share
// it in turn (httpcache.Response).
//
// The Server reads the simulated request's own header map, uncopied: a
// Server never writes a request header, and a sender does not write one
// after the request is sent (netsim.Request).
func NewOrigin(s *Server) netsim.Origin { return &originAdapter{h: s, share: true} }

// NewHandlerOrigin adapts any http.Handler — for example an existing
// application wrapped in catalyst.Middleware — to the simulator's Origin
// interface, so the emulated browser can drive the retrofit path
// end-to-end. Bodies and request headers are copied: an arbitrary handler
// may write from a buffer it reuses (the middleware streams through pooled
// copy buffers and sends a plain page out of its pooled sniffing buffer),
// and may write to its request's header.
func NewHandlerOrigin(h http.Handler) netsim.Origin { return &originAdapter{h: h} }

type originAdapter struct {
	h http.Handler
	// share accepts decorate.WriteEntity's body hand-off and hands the
	// handler the simulated request's header map (NewOrigin).
	share bool
}

// RoundTrip implements netsim.Origin.
func (a *originAdapter) RoundTrip(req *netsim.Request) *httpcache.Response {
	method := req.Method
	if method == "" {
		method = "GET"
	}
	u, err := url.ParseRequestURI(req.Path)
	if err != nil {
		// What a server answers a request line whose target is not a
		// request URI.
		return &httpcache.Response{StatusCode: http.StatusBadRequest, Header: make(http.Header)}
	}
	// The request httptest.NewRequest would build, without parsing a
	// request line: the same Host, RemoteAddr, Proto and body.
	host := u.Host
	if host == "" {
		host = "example.com"
	}
	r := &http.Request{
		Method:     method,
		URL:        u,
		Proto:      "HTTP/1.1",
		ProtoMajor: 1,
		ProtoMinor: 1,
		Header:     req.Header,
		Body:       http.NoBody,
		Host:       host,
		RequestURI: req.Path,
		RemoteAddr: "192.0.2.1:1234",
	}
	if req.Ctx != nil {
		// Propagate the caller's context so cancelling the simulated
		// request cancels the real handler's work (probe fan-outs,
		// budget deadlines) end to end.
		r = r.WithContext(req.Ctx)
	}
	switch {
	case !a.share:
		r.Header = make(http.Header, len(req.Header))
		for k, vs := range req.Header {
			for _, v := range vs {
				r.Header.Add(k, v)
			}
		}
	case r.Header == nil:
		r.Header = make(http.Header)
	}
	rec := &recorder{header: make(http.Header), code: http.StatusOK, share: a.share}
	a.h.ServeHTTP(rec, r)
	return &httpcache.Response{StatusCode: rec.code, Header: rec.header, Body: rec.body}
}

// recorder is the adapter's ResponseWriter, with httptest.ResponseRecorder's
// semantics for what the simulator reads: the first WriteHeader fixes the
// status (200 if the handler writes or flushes without one) and the header
// map is the live one. Write copies, since its argument may be a reused
// buffer.
type recorder struct {
	header http.Header
	code   int
	wrote  bool
	body   []byte
	share  bool // keep what WriteShared is handed (NewOrigin)
}

func (w *recorder) Header() http.Header { return w.header }

func (w *recorder) WriteHeader(code int) {
	if !w.wrote {
		w.code, w.wrote = code, true
	}
}

func (w *recorder) Write(p []byte) (int, error) {
	w.wrote = true
	w.body = append(w.body, p...)
	return len(p), nil
}

// Flush implements http.Flusher; like net/http, it commits the status.
func (w *recorder) Flush() { w.wrote = true }

// WriteShared is decorate.WriteEntity's hand-off. Under NewOrigin it keeps
// body as the response body; the full slice expression makes a later Write
// append to a copy rather than into body's array.
func (w *recorder) WriteShared(body []byte) int {
	if !w.share || len(w.body) > 0 {
		n, _ := w.Write(body)
		return n
	}
	w.wrote = true
	w.body = body[:len(body):len(body)]
	return len(body)
}
