package catalyst

import (
	"bytes"
	"net/http"
	"strings"
	"testing"

	"cachecatalyst/internal/etag"
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

// FuzzProbeWriter drives the writer with whatever an inner handler might
// send — two WriteHeader codes, an Etag, a Content-Type and a body in two
// chunks, the first optionally before any WriteHeader — and holds it to
// net/http's commit rules: the first status ≥ 200 wins (a Write before it
// implies 200), the tag is etag.Parse of the Etag seen at commit, and the
// body is kept, byte for byte, exactly when a 200 is a stylesheet or
// carries no parsable tag.
func FuzzProbeWriter(f *testing.F) {
	f.Add(200, 404, `"v1"`, "text/css; charset=utf-8", []byte("a{}b{}"), uint8(3), false)
	f.Add(103, 200, `W/"v2"`, "image/png", []byte("PNG"), uint8(1), false)
	f.Add(100, 101, "", "text/html", []byte("untagged"), uint8(4), true)
	f.Add(304, 200, `"s1"`, "text/css", []byte("a 304 has no body"), uint8(0), false)
	f.Add(-1, 999, `"unterminated`, "", []byte{}, uint8(0), false)
	f.Fuzz(func(t *testing.T, first, second int, tag, ctype string, body []byte, cut uint8, writeFirst bool) {
		w := probeWriterPool.Get().(*probeWriter)
		defer w.release()
		w.Header().Set("Etag", tag)
		w.Header().Set("Content-Type", ctype)
		k := int(cut) % (len(body) + 1)
		wantStatus := 200
		if writeFirst {
			w.Write(body[:k])
		} else if first >= 200 {
			wantStatus = first
		} else if second >= 200 {
			wantStatus = second
		}
		w.WriteHeader(first)
		w.WriteHeader(second)
		if !writeFirst {
			w.Write(body[:k])
		}
		// Headers are read at commit: a later Etag changes nothing.
		w.Header().Set("Etag", `"after-commit"`)
		w.Write(body[k:])

		if w.status != wantStatus {
			t.Fatalf("status %d, want %d (WriteHeader %d then %d, write first %v)", w.status, wantStatus, first, second, writeFirst)
		}
		wantTag, wantOK := etag.Parse(tag)
		if w.hasEtag != (tag != "") || w.tagOK != wantOK || w.tag != wantTag {
			t.Fatalf("Etag %q: hasEtag %v, tag %v (ok %v); want %v (ok %v)", tag, w.hasEtag, w.tag, w.tagOK, wantTag, wantOK)
		}
		keep := wantStatus == http.StatusOK && (strings.HasPrefix(ctype, "text/css") || !wantOK)
		if keep && !bytes.Equal(w.buf.Bytes(), body) {
			t.Fatalf("kept %q, want the whole body %q (status %d, type %q, tag ok %v)", w.buf.Bytes(), body, wantStatus, ctype, wantOK)
		}
		if !keep && w.buf.Len() != 0 {
			t.Fatalf("kept %d body bytes (status %d, type %q, tag ok %v), want none", w.buf.Len(), wantStatus, ctype, wantOK)
		}
	})
}
