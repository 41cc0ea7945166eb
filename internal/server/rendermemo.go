package server

import "cachecatalyst/internal/decorate"

// RenderMemo holds the renders (decorate.NewRender) of every page version
// the servers sharing it have served, keyed by the page's *Resource and the
// URL it was served at. A render is a pure function of the two: the body a
// Resource carries is never written, and the URL is what the page's
// references resolve against, so one Resource at two URLs is two renders. A
// sweep makes one memo per site, hands it to every world's server of that
// site (WithRenderMemo), and drops it with the site, so each page version is
// rendered once per site instead of once per world.
//
// The memo shares only the immutable render. Each server still keeps its own
// bounded render store (Options.MaxRenderBytes) over it, and with it its own
// map slot and Metrics. A memo is unbounded and lives as long as its
// Resources, which is why only the simulator's sweeps make one: a program
// serving from disk (catalystd -dir) keeps a Resource for as long as the
// file does not change, and its renders must stay within the store's budget.
//
// A RenderMemo is not safe for concurrent use; it needs no lock because a
// site's worlds run one after another on one goroutine.
type RenderMemo struct {
	renders map[renderKey]decorate.Render
}

// renderKey names one page version at one URL.
type renderKey struct {
	res  *Resource
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

// WithRenderMemo makes the server read every render through m. The servers
// sharing m must be used from one goroutine. Returns s for chaining at
// construction.
func (s *Server) WithRenderMemo(m *RenderMemo) *Server {
	s.renderMemo = m
	return s
}

// render returns the render of res served at p: the memo's, or, on a miss
// or without a memo, a new one, which a memo keeps.
func (m *RenderMemo) render(p string, res *Resource) decorate.Render {
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
