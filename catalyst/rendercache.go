package catalyst

import (
	"crypto/sha256"
	"net/http"
	"sync/atomic"

	"cachecatalyst/internal/decorate"
	"cachecatalyst/internal/etag"
	"cachecatalyst/internal/headers"
)

// renderEntry is the middleware's cached render: the shared, immutable
// decorate.Render — a pure function of the page's location and raw
// inner-handler body — plus the one mutable slot the probe-backed front end
// adds. Because the cache key commits to the raw content (see renderKey),
// entries never go stale — a changed page hashes to a new key — so a hot
// unchanged page skips the HTML tokenizer, the tree builder, the snippet
// injection, and the whole-body validator hash on every request after the
// first.
//
// enc is the most recent canonical X-Etag-Config encoding, swapped
// atomically and valid only while the probe generation it was built under
// still stands (see tenantState.probeGen).
type renderEntry struct {
	decorate.Render
	enc atomic.Pointer[encodedMap]
}

// renderEntrySize charges the render alone. The cached encoding is
// deliberately not charged — it is bounded by MaxMapBytes (or by the map
// the refs imply) and mutates after insertion, which byte accounting must
// not chase.
func renderEntrySize(key string, e *renderEntry) int64 {
	return decorate.RenderSize(key, &e.Render)
}

// encodedMap is one canonical ETagMap.Encode result, stamped with the probe
// generation it reflects and the earliest expiry among the probes it was
// assembled from. While the generation still matches and no contributing
// probe has expired, re-resolving would only re-read unchanged cache
// entries and re-serialize the identical map — so the whole resolve phase
// is skipped and the string reused as-is. The first request past either
// bound rebuilds (and re-probes whatever expired). hdr is the encoding as
// a ready-to-assign header value slice, shared across responses like the
// renderEntry header slices.
type encodedMap struct {
	gen     uint64
	expires int64 // unix nanoseconds
	enc     string
	hdr     []string
}

// renderKey commits a cache entry to the page's URL (path and query) and
// the raw inner body. SHA-256 keeps the commitment collision-safe even for
// hostile page content; 16 bytes of it is plenty for a cache key.
func renderKey(pageURL string, body []byte) string {
	sum := sha256.Sum256(body)
	return pageURL + "\x00" + string(sum[:16])
}

// render returns the memoized render for (pageURL, raw), computing and
// caching it on first sight. Concurrent first renders of the same unchanged
// page collapse into one extraction via the store's singleflight. With the
// cache disabled (MaxRenderBytes < 0) every request pays the full pipeline,
// which is exactly the pre-cache behaviour.
func (m *middleware) render(ts *tenantState, pageURL string, raw []byte) *renderEntry {
	load := func() (*renderEntry, error) {
		return &renderEntry{Render: decorate.NewRender(pageURL, string(raw))}, nil
	}
	if ts.renders == nil {
		e, _ := load()
		return e
	}
	e, _ := ts.renders.GetOrLoad(renderKey(pageURL, raw), load)
	return e
}

// hotEntry is the hot index's record for one page URL: the page's most recent
// render, shared with the render cache, and what this URL alone adds. When
// the 200 the render came from may be replayed (see holdable), the page is
// held. A held entry keeps the validator the inner handler issued, as a
// ready-to-assign If-None-Match value, and a snapshot of that 200's header,
// so a conditional page fetch answered 304 can be served from here (DESIGN.md
// §12). Nothing is written to an entry after it is stored.
type hotEntry struct {
	render *renderEntry
	// tag, inm and header are set only for a held page (inm != nil). header
	// is the 200's header without Content-Length and Etag, which serveHTML
	// takes from the render.
	tag    etag.Tag
	inm    []string
	header http.Header
}

// hotEntrySize charges the pinned render (see renderEntrySize) plus what the
// entry holds beside it: the validator and the header snapshot.
func hotEntrySize(key string, e *hotEntry) int64 {
	n := renderEntrySize(key, e.render) + int64(len(e.tag.Opaque))
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

// hotRender is render() with the warm fast lane in front: the per-URL hot
// index pins the most recent render of each page, and a pinned render that
// is the render of the current raw body (decorate.Render.IsRenderOf: a
// length check and a memcmp against the pinned body either side of the
// injected snippet — two orders of magnitude cheaper than the SHA-256 the
// render-cache key costs) is reused with zero hashing, zero locking and zero
// allocation. The index keeps no copy of the raw page: the render it pins is
// that page plus the snippet, and renderEntrySize charges it for exactly
// that. A changed body misses (the compare is an equality, not a heuristic)
// and falls through to the keyed render cache, so correctness never rests on
// this index: it is a pure shortcut over renderKey. hdr is the 200's header:
// it decides whether the page is held (see hotEntry).
func (m *middleware) hotRender(ts *tenantState, pageURL string, raw []byte, hdr http.Header) *renderEntry {
	if ts.hot == nil {
		return m.render(ts, pageURL, raw)
	}
	tag, hold := holdable(hdr)
	var ent *renderEntry
	if he, ok := ts.hot.Get(pageURL); ok && he.render.IsRenderOf(raw) {
		if (he.inm != nil) == hold && he.tag == tag {
			return he.render // the entry describes this 200 already
		}
		ent = he.render
	} else {
		ent = m.render(ts, pageURL, raw)
	}
	he := &hotEntry{render: ent}
	if hold {
		he.tag, he.inm, he.header = tag, []string{tag.String()}, hdr.Clone()
		delete(he.header, "Content-Length")
		delete(he.header, "Etag")
	}
	ts.hot.Put(pageURL, he)
	return ent
}
