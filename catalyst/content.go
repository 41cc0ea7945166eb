package catalyst

import (
	"context"
	"maps"
	"net/http"
	"time"

	"cachecatalyst/internal/core"
	"cachecatalyst/internal/etag"
	"cachecatalyst/internal/server"
)

// contentFront is the page and reference source of a Middleware in front of
// a *server.Server, chosen at construction by next's type. The server hands
// ServePage each HTML page's Resource, whose validator keys the render; its
// Content and CrossOriginETag answer every lookup, held and never expiring,
// so nothing is probed, kept stale or broken out; and renders are read
// through memo, when set (ShareRenders).
type contentFront struct {
	srv     *server.Server
	content server.Content
	cross   func(absURL string) (etag.Tag, bool)
	rec     *server.Recorder // nil with recording off
	memo    *RenderMemo
}

func newContentFront(srv *server.Server) *contentFront {
	return &contentFront{srv: srv, content: srv.Content(), cross: srv.Options().CrossOriginETag, rec: srv.Recorder()}
}

// render returns the entry for res, the page at pageURL, from the render
// store's one entry per URL (fill): the stored entry while it was rendered
// from res's validator, a tag compare, else a fresh render through the memo.
func (c *contentFront) render(ts *tenantState, pageURL string, res *server.Resource) *renderEntry {
	return fill(ts, pageURL, func(e *renderEntry) bool { return e.tag == res.ETag }, func() *renderEntry {
		return &renderEntry{render: c.memo.render(pageURL, res), tag: res.ETag}
	})
}

// never is when a Content answer stops holding: it is re-asked, never
// expired.
var never = time.Date(9999, time.December, 31, 0, 0, 0, 0, time.UTC)

// lookup makes c a mapSource; a stylesheet's references come via the memo.
func (c *contentFront) lookup(_ context.Context, _ *http.Request, path string, sheet bool) (etag.Tag, bool, []core.Ref) {
	r, ok := c.content.Get(path)
	if !ok {
		return etag.Tag{}, false, nil
	}
	if !sheet || !isCSS(r.ContentType) {
		return r.ETag, true, nil
	}
	return r.ETag, true, c.memo.sheet(path, r)
}

// cached is false: at contentConcurrency a resolve makes every lookup
// inline anyway, and a wider one (a test's) fans them all out.
func (c *contentFront) cached(string) bool { return false }

func (c *contentFront) recheck(key string, cross bool) (etag.Tag, bool, time.Time) {
	if cross {
		tag, ok := c.cross(key)
		return tag, ok, never
	}
	r, ok := c.content.Get(key)
	if !ok {
		return etag.Tag{}, false, never
	}
	return r.ETag, true, never
}

// withRecorded returns base plus what the session's earlier loads of the
// page requested beyond it, or nil when there is nothing to add.
func (c *contentFront) withRecorded(base core.ETagMap, session, pageURL string) core.ETagMap {
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

// RenderMemo holds the renders (newRender) of every page version
// the Middlewares sharing it have served from Content, keyed by the page's
// *server.Resource and URL, of which a render is a pure function (a body is
// never written; references resolve against the URL), and alike the
// references (extractCSSRefs) of every stylesheet version their maps read.
// A sweep makes one per site and hands it to every world's front end of the
// site (ShareRenders), so each page and stylesheet version is rendered or
// extracted once per site, not once per world or resolve. Each Middleware
// keeps its own bounded store, map slots and counters over it.
// A memo is unbounded and lives as long as its Resources, so only the
// simulator makes one: catalystd -dir's renders stay within its store's
// budget. It is not safe for concurrent use: a site's worlds run one after
// another on one goroutine.
type RenderMemo struct {
	renders map[renderKey]render
	sheets  map[renderKey][]core.Ref
}

// renderKey names one page or stylesheet version at one URL.
type renderKey struct {
	res  *server.Resource
	page string
}

// NewRenderMemo returns an empty memo.
func NewRenderMemo() *RenderMemo {
	m := &RenderMemo{renders: make(map[renderKey]render), sheets: make(map[renderKey][]core.Ref)}
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
func (m *RenderMemo) render(p string, res *server.Resource) render {
	key := renderKey{res, p}
	if m != nil {
		if rd, ok := m.renders[key]; ok {
			return rd
		}
	}
	rd := newRender(p, string(res.Body))
	if m != nil {
		m.renders[key] = rd
	}
	return rd
}

// sheet returns extractCSSRefs of the stylesheet res at p, once per memo.
func (m *RenderMemo) sheet(p string, res *server.Resource) []core.Ref {
	if m == nil {
		return extractCSSRefs(p, string(res.Body))
	}
	refs, ok := m.sheets[renderKey{res, p}]
	if !ok {
		refs = extractCSSRefs(p, string(res.Body))
		m.sheets[renderKey{res, p}] = refs
	}
	return refs
}

// MapsBuilt reports how many X-Etag-Config maps h, a Middleware, has
// resolved and their encoded wire bytes.
func MapsBuilt(h http.Handler) (maps, bytes int64) {
	mm := h.(*middleware).metrics
	return mm.MapsBuilt.Load(), mm.MapBytes.Load()
}
