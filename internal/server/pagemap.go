package server

import (
	"context"
	"maps"
	"net/http"

	"cachecatalyst/internal/core"
	"cachecatalyst/internal/decorate"
	"cachecatalyst/internal/etag"
)

// contentSource answers a resolve's same-origin lookups from Content.
type contentSource struct{ c Content }

func (cs contentSource) Lookup(path string) (etag.Tag, bool, string, bool) {
	r, ok := cs.c.Get(path)
	if !ok {
		return etag.Tag{}, false, "", false
	}
	if !decorate.IsCSS(r.ContentType) {
		return r.ETag, true, "", false
	}
	return r.ETag, true, r.text(), true
}

// recheck answers a slotted map's recorded lookup afresh: Content for a
// same-origin key, CrossOriginETag for a third-party one. Content always
// answers, so every lookup is held.
func (s *Server) recheck(key string, cross bool) (etag.Tag, bool, bool) {
	if cross {
		tag, ok := s.opts.CrossOriginETag(key)
		return tag, ok, true
	}
	r, ok := s.content.Get(key)
	if !ok {
		return etag.Tag{}, false, true
	}
	return r.ETag, true, true
}

// resolve runs the resolve phase for an already-extracted page and encodes
// the result. The request's context flows into the fan-out, so an abandoned
// request stops resolving instead of completing the whole BFS.
func (s *Server) resolve(ctx context.Context, refs []core.Ref) *decorate.Resolved {
	m, seen := decorate.Resolve(ctx, refs, contentSource{s.content},
		core.BuildOptions{CrossOriginETag: s.opts.CrossOriginETag, Concurrency: s.tune.mapConcurrency})
	rm, _ := decorate.NewResolved(m, seen, s.tune.maxMapBytes)
	if s.recorder != nil {
		rm.Base = m
	}
	return rm
}

// attachMap sets the page's X-Etag-Config and returns its entry count: the
// render's previous map when its evidence still holds, a fresh resolve
// otherwise. Verification runs before the gate — the gate exists for
// fan-out amplification and a verification has none — so under saturation
// warm pages keep their maps and only resolves shed. A request whose budget
// is already spent may likewise still reuse: verifying is cheaper than
// shipping the partial map a resolve would assemble.
func (s *Server) attachMap(ctx context.Context, h http.Header, p string, pr *pageRender, sessionID string) int {
	rm := pr.resolved.Load()
	built := rm == nil || !rm.Verify(s.recheck)
	if built {
		// A refused request ships its HTML without the map rather than
		// queueing behind a saturated resolver.
		if err := s.admitMap(ctx); err != nil {
			s.Metrics.MapSheds.Add(1)
			s.decide(ctx, h, "map-shed", p)
			return 0
		}
		rm = s.resolve(ctx, pr.Refs)
		s.releaseMap()
		// Never keep a map assembled under a done context (a cancelled
		// client, an exhausted budget): it may be a prefix of the real one.
		if ctx.Err() == nil {
			pr.resolved.Store(rm)
		}
	}
	hdr, entries := rm.Hdr, rm.Entries
	// Recorded extras are per session, so they ride on top of the shared
	// map for this response only and never enter the slot.
	if m := s.withRecorded(rm.Base, sessionID, p); m != nil {
		enc, _ := decorate.EncodeMap(m, s.tune.maxMapBytes)
		hdr, entries = []string{enc}, len(m)
	}
	h[core.HeaderName] = hdr
	if built {
		s.Metrics.MapsBuilt.Add(1)
		s.Metrics.MapBytes.Add(int64(core.WireSizeOf(hdr[0])))
		s.decide(ctx, h, "map-built", p)
	} else {
		s.Metrics.MapsReused.Add(1)
		s.decide(ctx, h, "map-reused", p)
	}
	return entries
}

// withRecorded returns base plus the resources the session's earlier loads
// of the page requested that base does not cover, or nil when there is
// nothing to add (recording off, no session, every extra covered or gone).
func (s *Server) withRecorded(base core.ETagMap, sessionID, pageURL string) core.ETagMap {
	if s.recorder == nil || sessionID == "" {
		return nil
	}
	var m core.ETagMap
	for _, extra := range s.recorder.Recorded(sessionID, pageURL) {
		if _, covered := base[extra]; covered {
			continue
		}
		if r, ok := s.content.Get(extra); ok {
			if m == nil {
				m = maps.Clone(base)
			}
			m[extra] = r.ETag
		}
	}
	return m
}

// admitMap acquires a map-resolution slot, or reports that the map should
// be shed; releaseMap frees it. With no gate configured every request is
// admitted for free.
func (s *Server) admitMap(ctx context.Context) error {
	if s.mapGate == nil {
		return nil
	}
	return s.mapGate.AcquireSlot(ctx)
}

func (s *Server) releaseMap() {
	if s.mapGate != nil {
		s.mapGate.Release()
	}
}
