package catalyst

import (
	"net/http"
	"testing"
)

// TestProbeWriterCommitRules pins the net/http commit rules inner handlers
// rely on: a 1xx does not commit, the first Write implies 200, a second
// WriteHeader is ignored, and headers are read at commit time. It also pins
// what the writer keeps: a tagged non-stylesheet body is dropped, a
// stylesheet's and an untagged response's are kept, and reset leaves nothing
// of the last probe for the pool's next taker.
func TestProbeWriterCommitRules(t *testing.T) {
	w := probeWriterPool.Get().(*probeWriter)
	w.WriteHeader(http.StatusEarlyHints)
	if w.status != 0 {
		t.Fatalf("a 103 committed the response: status %d", w.status)
	}
	w.Header().Set("Etag", `W/"v1"`)
	w.Header().Set("Content-Type", "image/png")
	if _, err := w.Write([]byte("PNG")); err != nil {
		t.Fatal(err)
	}
	w.Header().Set("Etag", `"late"`)
	w.WriteHeader(http.StatusNotFound)
	if w.status != http.StatusOK || !w.tagOK || w.tag.String() != `W/"v1"` || w.isCSS {
		t.Fatalf("after Write: status %d, tag %v (ok %v), css %v; want the implicit 200 with the tag set before it", w.status, w.tag, w.tagOK, w.isCSS)
	}
	if w.buf.Len() != 0 {
		t.Fatalf("kept %d body bytes of a tagged image", w.buf.Len())
	}

	w.reset()
	if len(w.header) != 0 || w.status != 0 || w.hasEtag || w.tagOK {
		t.Fatalf("reset left state behind: %+v", w)
	}
	w.Header().Set("Etag", `"s1"`)
	w.Header().Set("Content-Type", "text/css; charset=utf-8")
	w.Write([]byte("a{}"))
	if !w.isCSS || w.buf.String() != "a{}" {
		t.Fatalf("stylesheet body not kept: css %v, body %q", w.isCSS, w.buf.String())
	}

	w.reset()
	w.Write([]byte("untagged"))
	if w.hasEtag || w.buf.String() != "untagged" {
		t.Fatalf("untagged body not kept for hashing: hasEtag %v, body %q", w.hasEtag, w.buf.String())
	}

	w.reset()
	w.Header().Set("Etag", `"s1"`)
	w.WriteHeader(http.StatusNotModified)
	w.Write([]byte("a 304 has no body"))
	if w.status != http.StatusNotModified || !w.tagOK || w.buf.Len() != 0 {
		t.Fatalf("304: status %d, tagOK %v, %d bytes kept", w.status, w.tagOK, w.buf.Len())
	}
	w.release()
}
