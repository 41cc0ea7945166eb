package catalyst

import (
	"bytes"
	"net/http"
	"sync"

	"cachecatalyst/internal/decorate"
	"cachecatalyst/internal/etag"
)

// probeWriter is the http.ResponseWriter a subresource probe hands the
// inner handler. A probe wants one fact — the path's current validator — so
// the writer records the status, the Etag and whether the entity is a
// stylesheet, and keeps body bytes only when it must: a stylesheet's (its
// url()/@import children are extracted from them) or a response's that
// carries no parsable Etag (the tag is then derived from the content).
// Every other byte is dropped as it arrives, and a 304 never has any.
//
// It implements http.ResponseWriter and nothing else — no Flusher, no
// Hijacker — with net/http's commit rules: the first Write implies a 200,
// informational 1xx codes and any WriteHeader after the first are ignored,
// and headers are read when the status commits, not after.
type probeWriter struct {
	header   http.Header
	status   int  // 0 until committed
	hasEtag  bool // the response carried an Etag header at all
	tagOK    bool // ... and it parsed, into tag
	tag      etag.Tag
	isCSS    bool
	keepBody bool
	buf      bytes.Buffer
}

// probeWriterPool recycles probeWriters — one per probe flight — the way
// sniffPool recycles the serving path's writer. Nothing a writer owns
// outlives fetchProbe: the tag is a value and the stylesheet body is copied
// out as a string before release.
var probeWriterPool = sync.Pool{
	New: func() any { return &probeWriter{header: make(http.Header)} },
}

// reset returns the writer to its just-constructed state, keeping the
// header map's buckets and the buffer's storage.
func (w *probeWriter) reset() {
	clear(w.header)
	w.buf.Reset()
	w.status, w.tag = 0, etag.Tag{}
	w.hasEtag, w.tagOK, w.isCSS, w.keepBody = false, false, false, false
}

func (w *probeWriter) release() {
	// One huge stylesheet must not pin its buffer in the pool forever.
	if w.buf.Cap() > 1<<20 {
		return
	}
	w.reset()
	probeWriterPool.Put(w)
}

func (w *probeWriter) Header() http.Header { return w.header }

func (w *probeWriter) WriteHeader(code int) {
	if w.status != 0 || code < 200 {
		return
	}
	w.status = code
	if v := w.header.Get("Etag"); v != "" {
		w.hasEtag = true
		w.tag, w.tagOK = etag.Parse(v)
	}
	if code == http.StatusOK {
		w.isCSS = decorate.IsCSS(w.header.Get("Content-Type"))
		w.keepBody = w.isCSS || !w.tagOK
	}
}

func (w *probeWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.WriteHeader(http.StatusOK)
	}
	if w.keepBody {
		w.buf.Write(b)
	}
	return len(b), nil
}
