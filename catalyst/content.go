package catalyst

import (
	"context"
	"maps"
	"net/http"

	"cachecatalyst/internal/core"
	"cachecatalyst/internal/decorate"
	"cachecatalyst/internal/etag"
	"cachecatalyst/internal/server"
)

// contentFront is the page and reference source of a Middleware in front of
// a *server.Server, chosen at construction by next's type. The server hands
// ServePage each HTML page's Resource, whose validator keys the render; its
// Content and CrossOriginETag answer every lookup, held and never expiring,
// so nothing is probed, kept stale or broken out; the map is resolved with
// the server's MapTuning; and renders are read through memo, when set
// (ShareRenders).
type contentFront struct {
	srv                      *server.Server
	content                  server.Content
	cross                    func(absURL string) (etag.Tag, bool)
	rec                      *server.Recorder // nil with recording off
	concurrency, maxMapBytes int
	memo                     *RenderMemo
}

func newContentFront(srv *server.Server) *contentFront {
	c := &contentFront{srv: srv, content: srv.Content(), cross: srv.Options().CrossOriginETag, rec: srv.Recorder()}
	c.concurrency, c.maxMapBytes = srv.MapTuning()
	return c
}

// render returns the entry for res, the page at pageURL, from the render
// store's one entry per URL: the stored entry while it was rendered from
// res's validator — one lookup and one tag compare, allocating nothing —
// else a render made under the store's singleflight for the URL, which
// replaces it. With the store disabled every request renders.
func (c *contentFront) render(ts *tenantState, pageURL string, res *server.Resource) *renderEntry {
	if ts.renders == nil {
		return &renderEntry{Render: c.memo.render(pageURL, res), tag: res.ETag}
	}
	ent, ok := ts.renders.Get(pageURL)
	for !ok || ent.tag != res.ETag {
		ent, _, _ = ts.renders.Do(pageURL, func() (*renderEntry, error) {
			// A flight that landed between the lookup and this one may have
			// stored this version's render already.
			if cur, ok := ts.renders.Peek(pageURL); ok && cur.tag == res.ETag {
				return cur, nil
			}
			e := &renderEntry{Render: c.memo.render(pageURL, res), tag: res.ETag}
			ts.renders.Put(pageURL, e)
			return e, nil
		})
		ok = true
	}
	return ent
}

// Lookup makes c the decorate.Source of its resolves.
func (c *contentFront) Lookup(path string) (etag.Tag, bool, string, bool) {
	r, ok := c.content.Get(path)
	if !ok {
		return etag.Tag{}, false, "", false
	}
	if !decorate.IsCSS(r.ContentType) {
		return r.ETag, true, "", false
	}
	return r.ETag, true, r.Text(), true
}

// recheck answers a slotted map's recorded lookup afresh; every lookup is
// held.
func (c *contentFront) recheck(key string, cross bool) (etag.Tag, bool, bool) {
	if cross {
		tag, ok := c.cross(key)
		return tag, ok, true
	}
	r, ok := c.content.Get(key)
	if !ok {
		return etag.Tag{}, false, true
	}
	return r.ETag, true, true
}

// attachMap returns the X-Etag-Config value for ent, its entry count, and
// the decision: the render's slotted map while its evidence holds
// ("map-reused"), else a resolve under the request's context ("map-built"),
// slotted only if the context is not done — a cancelled or out-of-budget
// resolve may be a prefix of the real map. A done request may still reuse.
func (c *contentFront) attachMap(ctx context.Context, m *middleware, pageURL string, ent *renderEntry, session string) ([]string, int, string) {
	rm, decision := ent.Map.Load(), "map-reused"
	if rm == nil || !rm.Verify(c.recheck) {
		etags, seen := decorate.Resolve(ctx, ent.Refs, c, core.BuildOptions{CrossOriginETag: c.cross, Concurrency: c.concurrency})
		var dropped int
		rm, dropped = decorate.NewResolved(etags, seen, c.maxMapBytes)
		m.metrics.MapEntriesDropped.Add(int64(dropped))
		if c.rec != nil {
			rm.Base = etags
		}
		if ctx.Err() == nil {
			ent.Map.Store(rm)
		}
		decision = "map-built"
	}
	// Recorded extras are per session, so they ride on top of the shared
	// map for this response only and never enter the slot.
	if extra := c.withRecorded(rm.Base, session, pageURL); extra != nil {
		enc, _ := decorate.EncodeMap(extra, c.maxMapBytes)
		return []string{enc}, len(extra), decision
	}
	return rm.Hdr, rm.Entries, decision
}

// withRecorded returns base plus what the session's earlier loads of the
// page requested beyond it, or nil when there is nothing to add.
func (c *contentFront) withRecorded(base core.ETagMap, session, pageURL string) core.ETagMap {
	if c.rec == nil || session == "" {
		return nil
	}
	var m core.ETagMap
	for _, extra := range c.rec.Recorded(session, pageURL) {
		if _, covered := base[extra]; covered {
			continue
		}
		if r, ok := c.content.Get(extra); ok {
			if m == nil {
				m = maps.Clone(base)
			}
			m[extra] = r.ETag
		}
	}
	return m
}

// RenderMemo holds the renders (decorate.NewRender) of every page version
// the Middlewares sharing it have served from Content, keyed by the page's
// *server.Resource and URL, of which a render is a pure function (a body is
// never written; references resolve against the URL). A sweep makes one per
// site and hands it to every world's front end of the site (ShareRenders),
// so each page version is rendered once per site, not once per world. Each
// Middleware keeps its own bounded store, map slots and counters over it.
// A memo is unbounded and lives as long as its Resources, so only the
// simulator makes one: catalystd -dir's renders stay within its store's
// budget. It is not safe for concurrent use: a site's worlds run one after
// another on one goroutine.
type RenderMemo struct {
	renders map[renderKey]decorate.Render
}

// renderKey names one page version at one URL.
type renderKey struct {
	res  *server.Resource
	page string
}

// NewRenderMemo returns an empty memo.
func NewRenderMemo() *RenderMemo {
	m := &RenderMemo{renders: make(map[renderKey]decorate.Render)}
	if testHookNewRenderMemo != nil {
		testHookNewRenderMemo(m)
	}
	return m
}

// testHookNewRenderMemo, set only by tests before any memo is made, sees
// every memo NewRenderMemo returns.
var testHookNewRenderMemo func(*RenderMemo)

// ShareRenders makes h, a Middleware in front of a *server.Server, read
// every render through memo, and returns h.
func ShareRenders(h http.Handler, memo *RenderMemo) http.Handler {
	h.(*middleware).content.memo = memo
	return h
}

// render returns the render of res served at p: the memo's, or a new one,
// which a memo keeps.
func (m *RenderMemo) render(p string, res *server.Resource) decorate.Render {
	key := renderKey{res, p}
	if m != nil {
		if rd, ok := m.renders[key]; ok {
			return rd
		}
	}
	rd := decorate.NewRender(p, string(res.Body))
	if m != nil {
		m.renders[key] = rd
	}
	return rd
}

// MapsBuilt reports how many X-Etag-Config maps h, a Middleware, has
// resolved and their encoded wire bytes.
func MapsBuilt(h http.Handler) (maps, bytes int64) {
	mm := h.(*middleware).metrics
	return mm.MapsBuilt.Load(), mm.MapBytes.Load()
}
