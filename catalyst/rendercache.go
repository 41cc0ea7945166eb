package catalyst

import (
	"net/http"
	"sync/atomic"

	"cachecatalyst/internal/etag"
	"cachecatalyst/internal/headers"
)

// renderEntry is the middleware's record for one page URL: the render of the
// page's most recent body, its map slot, and, when the 200 the render came
// from may be replayed (see holdable), what a conditional fetch of the page
// needs. The render is immutable — a pure function of the page's URL and raw
// body — and render.isRenderOf (a length check and a memcmp either side of
// the injected snippet) tells whether a fetched body is the one rendered. So
// a hot unchanged page skips the HTML tokenizer, the tree builder, the
// snippet injection and the whole-body validator hash on every request after
// the first, and a changed body is rendered afresh and replaces the entry:
// the store holds one render per page, never a dead version of one.
//
// slot is the last X-Etag-Config map resolved for the render, with the
// evidence it rests on: reused while every lookup it names still answers as
// recorded (resolved.verify). A resolved is swapped in whole, so a reader
// never sees a torn one. Nothing else is written to an entry after it is
// stored.
type renderEntry struct {
	render
	slot atomic.Pointer[resolved]
	// tag is the validator the page's source issued: the Resource's in front
	// of a *server.Server, and, for a held page (inm != nil), the inner
	// handler's. inm and header are set only for a held page: tag as a
	// ready-to-assign If-None-Match value, and a snapshot of the 200's header
	// without Content-Length and Etag, which serveHTML takes from the render
	// — so a conditional page fetch answered 304 can be served from here
	// (DESIGN.md §12).
	tag    etag.Tag
	inm    []string
	header http.Header
}

// renderEntrySize charges what scales — the key, the body and the reference
// strings, plus a fixed allowance for the struct and per-reference
// bookkeeping — and what a held page keeps beside them: the validator and the
// header snapshot. The map slot is deliberately not charged — it is bounded
// by core.MaxEncodedMapBytes (encodeMap) and mutates after insertion, which
// byte accounting must not chase.
func renderEntrySize(key string, e *renderEntry) int64 {
	n := int64(len(key)+len(e.Body)+192) + int64(len(e.tag.Opaque))
	for _, ref := range e.Refs {
		n += int64(len(ref.Key)) + 32
	}
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
func newRenderEntry(rd render, tag etag.Tag, hold bool, hdr http.Header) *renderEntry {
	e := &renderEntry{render: rd}
	if hold {
		e.tag, e.inm, e.header = tag, []string{tag.String()}, hdr.Clone()
		delete(e.header, "Content-Length")
		delete(e.header, "Etag")
	}
	return e
}

// fill is the render store's one fill, whatever the source: the entry stored
// for pageURL while current holds of it — one lookup by URL, no hashing, no
// locking and no allocation — else the entry build makes under the store's
// singleflight for the URL, which replaces it; concurrent first renders of
// one page collapse into one extraction, and a caller that waited on the
// flight of another version asks again. With the store disabled
// (MaxRenderBytes < 0) every request builds.
func fill(ts *tenantState, pageURL string, current func(*renderEntry) bool, build func() *renderEntry) *renderEntry {
	if ts.renders == nil {
		return build()
	}
	ent, ok := ts.renders.Get(pageURL)
	for !ok || !current(ent) {
		ent, _, _ = ts.renders.Do(pageURL, func() (*renderEntry, error) {
			// A flight that landed between the lookup and this one may have
			// stored this version's render already.
			if cur, ok := ts.renders.Peek(pageURL); ok && current(cur) {
				return cur, nil
			}
			e := build()
			ts.renders.Put(pageURL, e)
			return e, nil
		})
		ok = true
	}
	return ent
}

// render returns the entry whose render is that of raw, the 200 body the
// inner handler just served for pageURL (fill). hdr is the 200's header and
// decides whether the page is held: when only that changes, the entry is
// replaced with the same render and its map slot carried over. With the
// store disabled no page is held.
func (m *middleware) render(ts *tenantState, pageURL string, raw []byte, hdr http.Header) *renderEntry {
	tag, hold := holdable(hdr)
	hold = hold && ts.renders != nil
	ent := fill(ts, pageURL, func(e *renderEntry) bool { return e.isRenderOf(raw) }, func() *renderEntry {
		return newRenderEntry(newRender(pageURL, string(raw)), tag, hold, hdr)
	})
	if ts.renders == nil || (ent.inm != nil) == hold && ent.tag == tag {
		return ent // nothing stored, or the entry describes this 200 already
	}
	e := newRenderEntry(ent.render, tag, hold, hdr)
	e.slot.Store(ent.slot.Load())
	ts.renders.Put(pageURL, e)
	return e
}
