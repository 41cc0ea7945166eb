package catalyst

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"

	"cachecatalyst/internal/etag"
	"cachecatalyst/internal/headers"
	"cachecatalyst/internal/server"
)

// sniffWriter is the middleware's hot-path http.ResponseWriter: it holds
// headers until the inner handler commits a status, then routes by content
// type. 200 text/html responses are buffered for map building and snippet
// injection; everything else is streamed straight through to the client
// with O(1) buffering — the inner handler runs exactly once either way,
// replacing the old record-then-replay scheme that executed it twice per
// non-HTML request.
//
// Because the middleware strips conditional headers from the request it
// hands the inner handler (the full entity is needed for sniffing), the
// writer restores conditional semantics itself on the passthrough path: a
// 200 whose validators match the original request's If-None-Match or
// If-Modified-Since is rewritten to a 304 and its body discarded.
//
// The one conditional the inner handler does see is the middleware's own:
// the revalidation of a page the render cache holds (see innerRequest). The 304
// that answers it is the middleware's to judge, so the writer captures it
// instead of forwarding it. So is a 200 page answering a HEAD: it has no body
// to decorate, and the middleware asks again with a GET.
type sniffWriter struct {
	dst http.ResponseWriter
	req *http.Request // original request, with its conditional headers

	// inner and innerHeader are the storage innerRequest builds the inner
	// handler's request in, pooled with the writer.
	inner       http.Request
	innerHeader http.Header
	// revalidating is set while the inner request carries the middleware's
	// If-None-Match, headOnly while it is a HEAD. The answers those leave to
	// the middleware — a 304 to the first, a 200 page to the second — commit
	// here, captured, and never reach dst.
	revalidating, headOnly, captured bool

	// staleOwner, when set, is consulted before a >= 500 status is
	// committed to the client: if it holds an unexpired stale copy of
	// stalePage, the writer swallows the error response (headers and
	// body) and marks held instead, so the middleware can substitute the
	// stale copy — the degradation ladder's "serve stale instead of
	// error-proxying" rung. Plain fields rather than a closure: this sits
	// on the hot path of every instrumented request, and a closure would
	// cost an allocation per serve.
	staleOwner *middleware
	staleState *tenantState
	stalePage  string

	header    http.Header
	status    int
	committed bool // WriteHeader decision made
	buffering bool // 200 text/html: capture body for rewriting
	discard   bool // conditional answered 304: drop body writes
	sentToDst bool // headers (and possibly body) reached the client
	hijacked  bool
	swallowed bool // 5xx swallowed for stale substitution

	buf bytes.Buffer
}

// sniffPool recycles sniffWriters — one per instrumented request, making
// the writer (header map buckets and body buffer included) a steady-state
// zero-allocation cost. Nothing a writer hands out survives the request:
// header value slices are allocated fresh by each handler's Set/Add calls
// (only the map's buckets are reused), and every consumer of the buffered
// body copies it (render interns it as a string; the render cache keeps no
// raw page, only the render; passthrough writes flush into net/http's own
// buffers) before release. The inner request lives here too, so a handler
// must not keep its request past returning, which net/http already forbids.
var sniffPool = sync.Pool{
	New: func() any { return &sniffWriter{header: make(http.Header), innerHeader: make(http.Header)} },
}

func newSniffWriter(dst http.ResponseWriter, req *http.Request) *sniffWriter {
	w := sniffPool.Get().(*sniffWriter)
	w.dst, w.req = dst, req
	return w
}

// innerRequest returns the request the inner handler is asked: the client's
// request with the given method, without its If-None-Match and
// If-Modified-Since (the middleware answers those itself), carrying inm as
// If-None-Match when the middleware revalidates a page it holds. A request
// with nothing to change is handed on as is. Otherwise the result is a
// shallow copy in the writer's own storage, header values shared with the
// original (handlers must not mutate their request), so once the pooled
// header map has grown, asking costs no allocation: no Clone, and inm is the
// held entry's precomputed slice.
func (w *sniffWriter) innerRequest(r *http.Request, method string, inm []string) *http.Request {
	w.revalidating, w.headOnly = inm != nil, method == http.MethodHead
	if method == r.Method && inm == nil && r.Header["If-None-Match"] == nil && r.Header["If-Modified-Since"] == nil {
		return r
	}
	clear(w.innerHeader)
	for k, vs := range r.Header {
		if k != "If-None-Match" && k != "If-Modified-Since" {
			w.innerHeader[k] = vs
		}
	}
	if inm != nil {
		w.innerHeader["If-None-Match"] = inm
	}
	w.inner = *r
	w.inner.Method, w.inner.Header = method, w.innerHeader
	return &w.inner
}

// rewind forgets a captured answer so the inner handler can be asked again.
func (w *sniffWriter) rewind() {
	clear(w.header)
	w.status = 0
	w.committed, w.discard, w.captured = false, false, false
}

// release resets the writer and returns it to the pool. Callers must not
// touch the writer afterwards; the middleware releases only after the
// response is fully written and nothing references the buffer.
func (w *sniffWriter) release() {
	w.dst, w.req = nil, nil
	w.inner = http.Request{}
	clear(w.innerHeader)
	w.staleOwner, w.staleState, w.stalePage = nil, nil, ""
	clear(w.header)
	w.status = 0
	w.committed, w.buffering, w.discard = false, false, false
	w.revalidating, w.headOnly, w.captured = false, false, false
	w.sentToDst, w.hijacked, w.swallowed = false, false, false
	// One huge page must not pin its buffer in the pool forever; past a
	// megabyte the writer is dropped and the next request allocates fresh.
	if w.buf.Cap() > 1<<20 {
		return
	}
	w.buf.Reset()
	sniffPool.Put(w)
}

func (w *sniffWriter) Header() http.Header { return w.header }

func (w *sniffWriter) WriteHeader(code int) {
	if w.committed || w.hijacked {
		return
	}
	if code < 200 {
		// 1xx informational responses go out immediately and do not
		// commit the final status.
		copyHeader(w.dst.Header(), w.header)
		w.dst.WriteHeader(code)
		w.sentToDst = true
		return
	}
	w.committed = true
	w.status = code

	html := code == http.StatusOK && server.IsHTML(w.header.Get("Content-Type"))
	if code == http.StatusNotModified && w.revalidating || html && w.headOnly {
		w.captured, w.discard = true, true
		return
	}
	if code >= http.StatusInternalServerError && w.staleOwner != nil {
		if _, _, ok := w.staleOwner.staleFor(w.staleState, w.stalePage); ok {
			// A stale substitute exists: swallow the error entirely.
			// Nothing reaches the client; the middleware serves the stale
			// copy after the inner handler returns.
			w.swallowed = true
			w.discard = true
			return
		}
	}

	if html {
		w.buffering = true
		// Pre-size from the declared length so a page written in many
		// small chunks costs one allocation, not a regrow cascade. The
		// declaration is advisory (and possibly hostile), so it is capped
		// and the buffer still grows past it if the handler lied.
		// The empty-string check matters: strconv.Atoi("") allocates its
		// error, and most handlers don't declare a length.
		if cl := w.header.Get("Content-Length"); cl != "" {
			if n, err := strconv.Atoi(cl); err == nil && n > 0 {
				const maxPrealloc = 1 << 20
				if n > maxPrealloc {
					n = maxPrealloc
				}
				w.buf.Grow(n)
			}
		}
		return
	}

	// Passthrough. Restore the conditional semantics the middleware
	// stripped from the inner request.
	if code == http.StatusOK && w.notModified() {
		h := w.dst.Header()
		copyHeader(h, w.header)
		h.Del("Content-Length")
		w.dst.WriteHeader(http.StatusNotModified)
		w.sentToDst = true
		w.discard = true
		return
	}
	copyHeader(w.dst.Header(), w.header)
	w.dst.WriteHeader(code)
	w.sentToDst = true
	// A HEAD the middleware asked as a GET gets the GET's head, no body.
	w.discard = w.req.Method == http.MethodHead
}

// notModified evaluates the original request's conditionals against the
// validators in the response headers the inner handler produced
// (headers.NotModified). An unconditional request parses neither.
func (w *sniffWriter) notModified() bool {
	if w.req.Header.Get("If-None-Match") == "" && w.req.Header.Get("If-Modified-Since") == "" {
		return false
	}
	tag, hasTag := etag.Parse(w.header.Get("Etag"))
	lm, _ := headers.ParseHTTPDate(w.header.Get("Last-Modified"))
	return headers.NotModified(w.req.Header, tag, hasTag, lm)
}

func (w *sniffWriter) Write(b []byte) (int, error) {
	if w.hijacked {
		return 0, http.ErrHijacked
	}
	if !w.committed {
		// Implicit 200. Like net/http, sniff the content type from the
		// first chunk when the handler declared none, so undeclared HTML
		// still gets decorated.
		if w.header.Get("Content-Type") == "" {
			w.header.Set("Content-Type", http.DetectContentType(b))
		}
		w.WriteHeader(http.StatusOK)
	}
	if w.discard {
		return len(b), nil
	}
	if w.buffering {
		return w.buf.Write(b)
	}
	return w.dst.Write(b)
}

// WriteString lets io.WriteString (and fmt) hand the writer a string
// without first copying it to a fresh []byte — on the buffering path the
// bytes land straight in the buffer. Semantics mirror Write exactly.
func (w *sniffWriter) WriteString(s string) (int, error) {
	if w.hijacked {
		return 0, http.ErrHijacked
	}
	if !w.committed {
		if w.header.Get("Content-Type") == "" {
			n := len(s)
			if n > 512 {
				n = 512 // DetectContentType reads at most 512 bytes
			}
			w.header.Set("Content-Type", http.DetectContentType([]byte(s[:n])))
		}
		w.WriteHeader(http.StatusOK)
	}
	if w.discard {
		return len(s), nil
	}
	if w.buffering {
		return w.buf.WriteString(s)
	}
	return io.WriteString(w.dst, s)
}

// Flush commits headers (like net/http) and forwards the flush on the
// streaming path. While buffering HTML the flush is absorbed: the rewritten
// document is delivered in one piece.
func (w *sniffWriter) Flush() {
	if !w.committed {
		w.WriteHeader(http.StatusOK)
	}
	if w.buffering || w.discard {
		return
	}
	if f, ok := w.dst.(http.Flusher); ok {
		f.Flush()
	}
}

// Hijack forwards to the underlying writer when it supports hijacking,
// letting upgrade handshakes (e.g. WebSocket) pass through the middleware.
func (w *sniffWriter) Hijack() (net.Conn, *bufio.ReadWriter, error) {
	hj, ok := w.dst.(http.Hijacker)
	if !ok {
		return nil, nil, fmt.Errorf("catalyst: underlying ResponseWriter does not support hijacking")
	}
	w.hijacked = true
	w.sentToDst = true
	return hj.Hijack()
}

// body returns the buffered HTML entity. Valid only on the buffering path,
// after the inner handler returned; the middleware hands it to the render
// cache, which hashes it as-is, so the slice must not be mutated.
func (w *sniffWriter) body() []byte { return w.buf.Bytes() }

func copyHeader(dst, src http.Header) {
	for k, vs := range src {
		dst[k] = vs
	}
}

var (
	_ http.ResponseWriter = (*sniffWriter)(nil)
	_ http.Flusher        = (*sniffWriter)(nil)
	_ http.Hijacker       = (*sniffWriter)(nil)
)
