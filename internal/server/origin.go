package server

import (
	"net/http"
	"net/url"
	"strings"

	"cachecatalyst/internal/httpcache"
	"cachecatalyst/internal/netsim"
)

// NewOrigin adapts h — a *Server, catalyst.Middleware in front of one or of
// any other handler — to the simulator's Origin interface, so
// discrete-event experiments exercise the same header logic as real
// deployments. The handler runs synchronously in zero simulated time;
// network costs are the transport model's job (TransportOptions.ServerThink
// charges processing time if desired).
//
// A body handed over by WriteEntity — a Resource's, a render's, or
// a freshly computed patch — becomes the response body without a copy, and
// what Write is handed is copied, since it may be a reused buffer. A body
// is never written after it is handed over, which is the ownership rule the
// browser's caches and parsers rely on when they share it in turn
// (httpcache.Response).
//
// The handler reads the simulated request's own header map, uncopied: a
// sender does not write one after the request is sent (netsim.Request),
// and neither a Server nor the middleware writes a request header, nor may
// a handler behind the middleware.
func NewOrigin(h http.Handler) netsim.Origin { return &originAdapter{h: h} }

type originAdapter struct{ h http.Handler }

// RoundTrip implements netsim.Origin.
func (a *originAdapter) RoundTrip(req *netsim.Request) *httpcache.Response {
	method := req.Method
	if method == "" {
		method = "GET"
	}
	u, ok := plainTarget(req.Path)
	if !ok {
		var err error
		if u, err = url.ParseRequestURI(req.Path); err != nil {
			// What a server answers a request line whose target is not a
			// request URI.
			return &httpcache.Response{StatusCode: http.StatusBadRequest, Header: make(http.Header)}
		}
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
	if r.Header == nil {
		r.Header = make(http.Header)
	}
	rec := &recorder{resp: httpcache.Response{StatusCode: http.StatusOK, Header: make(http.Header)}}
	a.h.ServeHTTP(rec, r)
	return &rec.resp
}

// recorder is the adapter's ResponseWriter, with httptest.ResponseRecorder's
// semantics for what the simulator reads: the first WriteHeader fixes the
// status (200 if the handler writes or flushes without one) and the header
// map is the live one. Write copies, since its argument may be a reused
// buffer. The response it records is the one RoundTrip returns, allocated
// with the recorder.
type recorder struct {
	resp  httpcache.Response
	wrote bool
}

func (w *recorder) Header() http.Header { return w.resp.Header }

func (w *recorder) WriteHeader(code int) {
	if !w.wrote {
		w.resp.StatusCode, w.wrote = code, true
	}
}

func (w *recorder) Write(p []byte) (int, error) {
	w.wrote = true
	w.resp.Body = append(w.resp.Body, p...)
	return len(p), nil
}

// Flush implements http.Flusher; like net/http, it commits the status.
func (w *recorder) Flush() { w.wrote = true }

// WriteShared is WriteEntity's hand-off: it keeps body as the
// response body; the full slice expression makes a later Write append to a
// copy rather than into body's array.
func (w *recorder) WriteShared(body []byte) int {
	if len(w.resp.Body) > 0 {
		n, _ := w.Write(body)
		return n
	}
	w.wrote = true
	w.resp.Body = body[:len(body):len(body)]
	return len(body)
}

// plainTarget is url.ParseRequestURI(target) without the parse, for the
// targets the simulator sends: a path of plainPathByte bytes and an
// optional non-empty query of visible ASCII but '#'. It declines, with ok
// false, any other target, which goes to url.ParseRequestURI.
func plainTarget(target string) (u *url.URL, ok bool) {
	path, query, hasQuery := strings.Cut(target, "?")
	if !strings.HasPrefix(path, "/") || hasQuery && query == "" ||
		strings.IndexFunc(query, func(r rune) bool { return r <= ' ' || r >= 0x7f || r == '#' }) >= 0 {
		return nil, false
	}
	for i := 0; i < len(path); i++ {
		if !plainPathByte[path[i]] {
			return nil, false
		}
	}
	return &url.URL{Path: path, RawQuery: query}, true
}

// plainPathByte marks the bytes net/url keeps as they are in a path.
var plainPathByte = func() (t [256]bool) {
	for _, c := range []byte("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789-_.~$&+,/:;=@") {
		t[c] = true
	}
	return t
}()
