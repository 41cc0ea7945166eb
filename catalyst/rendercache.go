package catalyst

import (
	"net/http"

	"cachecatalyst/internal/decorate"
	"cachecatalyst/internal/etag"
	"cachecatalyst/internal/headers"
)

// renderEntry is the middleware's record for one page URL: the render of the
// page's most recent body, the one mutable slot the probe-backed front end
// adds, and, when the 200 the render came from may be replayed (see
// holdable), what a conditional fetch of the page needs. The render is the
// shared, immutable decorate.Render — a pure function of the page's URL and
// raw inner-handler body — and decorate.Render.IsRenderOf (a length check and
// a memcmp either side of the injected snippet) tells whether a fetched body
// is the one rendered. So a hot unchanged page skips the HTML tokenizer, the
// tree builder, the snippet injection and the whole-body validator hash on
// every request after the first, and a changed body is rendered afresh and
// replaces the entry: the store holds one render per page, never a dead
// version of one.
//
// Map is the last X-Etag-Config map resolved for the render, with the
// evidence it rests on (decorate.Slot): reused while every probe it names is
// held, unexpired and unchanged. Nothing else is written to an entry after
// it is stored.
type renderEntry struct {
	decorate.Render
	Map decorate.Slot
	// tag, inm and header are set only for a held page (inm != nil): the
	// validator the inner handler issued, also as a ready-to-assign
	// If-None-Match value, and a snapshot of the 200's header without
	// Content-Length and Etag, which serveHTML takes from the render — so a
	// conditional page fetch answered 304 can be served from here (DESIGN.md
	// §12).
	tag    etag.Tag
	inm    []string
	header http.Header
}

// renderEntrySize charges the render plus what a held page keeps beside it:
// the validator and the header snapshot. The map slot is deliberately not
// charged — it is bounded by core.MaxEncodedMapBytes (decorate.EncodeMap) and
// mutates after insertion, which byte accounting must not chase.
func renderEntrySize(key string, e *renderEntry) int64 {
	n := decorate.RenderSize(key, &e.Render) + int64(len(e.tag.Opaque))
	for _, v := range e.inm {
		n += int64(len(v))
	}
	for k, vs := range e.header {
		n += int64(len(k)) + 32
		for _, v := range vs {
			n += int64(len(v)) + 16
		}
	}
	return n
}

// holdable reports whether a 200 page response may be held, and its
// validator. The held header is replayed to every later client whose
// revalidation the inner handler answers 304, so the 200 must carry no
// Set-Cookie and no private or no-store: one client's state must never reach
// another. Its Etag must be strong, because a weak tag vouches for equivalent
// content, not for these bytes (RFC 9110 §8.8.1).
func holdable(hdr http.Header) (etag.Tag, bool) {
	tag, ok := etag.Parse(hdr.Get("Etag"))
	if !ok || tag.Weak || hdr["Set-Cookie"] != nil {
		return etag.Tag{}, false
	}
	if v := hdr.Get("Cache-Control"); v != "" {
		if cc := headers.ParseCacheControl(v); cc.Private || cc.NoStore {
			return etag.Tag{}, false
		}
	}
	return tag, true
}

// newRenderEntry wraps rd, holding the page when hold is set.
func newRenderEntry(rd decorate.Render, tag etag.Tag, hold bool, hdr http.Header) *renderEntry {
	e := &renderEntry{Render: rd}
	if hold {
		e.tag, e.inm, e.header = tag, []string{tag.String()}, hdr.Clone()
		delete(e.header, "Content-Length")
		delete(e.header, "Etag")
	}
	return e
}

// render returns the entry whose render is that of raw, the 200 body the
// inner handler just served for pageURL, with one lookup by URL. The stored
// entry answers when it is the render of raw, which is reused with zero
// hashing, zero locking and zero allocation. Any other body is rendered under
// the store's singleflight for the URL — concurrent first renders of one body
// collapse into one extraction — and replaces the entry; a caller that waited
// on the flight of another body asks again. hdr is the 200's header and
// decides whether the page is held: when only that changes, the entry is
// replaced with the same render and its map slot carried over. With the store
// disabled (MaxRenderBytes < 0) every request pays the full pipeline and no
// page is held.
func (m *middleware) render(ts *tenantState, pageURL string, raw []byte, hdr http.Header) *renderEntry {
	if ts.renders == nil {
		return &renderEntry{Render: decorate.NewRender(pageURL, string(raw))}
	}
	tag, hold := holdable(hdr)
	ent, ok := ts.renders.Get(pageURL)
	for !ok || !ent.IsRenderOf(raw) {
		ent, _, _ = ts.renders.Do(pageURL, func() (*renderEntry, error) {
			// A flight that landed between the lookup and this one may have
			// stored this body's render already.
			if cur, ok := ts.renders.Peek(pageURL); ok && cur.IsRenderOf(raw) {
				return cur, nil
			}
			e := newRenderEntry(decorate.NewRender(pageURL, string(raw)), tag, hold, hdr)
			ts.renders.Put(pageURL, e)
			return e, nil
		})
		ok = true
	}
	if (ent.inm != nil) == hold && ent.tag == tag {
		return ent // the entry describes this 200 already
	}
	e := newRenderEntry(ent.Render, tag, hold, hdr)
	e.Map.Store(ent.Map.Load())
	ts.renders.Put(pageURL, e)
	return e
}
