package server

import (
	"context"
	"maps"
	"net/http"
	"sync"

	"cachecatalyst/internal/core"
	"cachecatalyst/internal/decorate"
	"cachecatalyst/internal/etag"
)

// resolvedMap is the outcome of one resolve of a cached render's references,
// kept in the render's slot so the next request can ship it again instead of
// re-walking stylesheets and re-encoding a byte-identical header. It carries
// its own proof obligation: seen lists every lookup the resolve made, and the
// map is reused only while a fresh lookup of each still returns the validator
// recorded there. The resolve is a deterministic function of the render's
// references, the options, and exactly those answers (a stylesheet's body,
// and so its children, is committed to by its validator), so a verified
// resolvedMap is by construction what a fresh resolve would produce at that
// instant — there is no TTL and no staleness window. Immutable once stored.
//
// Validators rather than *Resource pointers: pointers would pin every
// replaced Resource (bodies and all) for as long as the render stays cached,
// and would rebuild when a reload re-reads an unchanged tree.
type resolvedMap struct {
	// hdr is the encoded map as a ready-to-assign X-Etag-Config value,
	// shared across responses and never mutated; entries is its size.
	hdr     []string
	entries int
	// base is the map itself, kept only in recording mode, where a
	// session's extras are folded on top of it per request. Read-only.
	base core.ETagMap
	seen []evidence
}

// evidence is one lookup a resolve made — a Content.Get, or a
// CrossOriginETag call when cross is set — and what it answered: the
// validator, or absent. Absent answers are evidence too: a referenced
// resource that is deployed later changes the map.
type evidence struct {
	key     string
	tag     etag.Tag
	present bool
	cross   bool
}

// verified re-asks every lookup rm rests on and reports whether each still
// answers as recorded: map lookups and tag compares — no parsing, no copying,
// no encoding, no allocation.
func (s *Server) verified(rm *resolvedMap) bool {
	for i := range rm.seen {
		ev := &rm.seen[i]
		var tag etag.Tag
		var present bool
		if ev.cross {
			tag, present = s.opts.MapOptions.CrossOriginETag(ev.key)
		} else if r, ok := s.content.Get(ev.key); ok {
			tag, present = r.ETag, true
		}
		if present != ev.present || present && tag != ev.tag {
			return false
		}
	}
	return true
}

// witness is the core.Resolver a resolve runs through: Content, plus a log
// of every lookup answered. MapOptions.Concurrency > 1 calls it from several
// goroutines, hence the mutex; the order of the log carries no meaning.
type witness struct {
	s    *Server
	mu   sync.Mutex
	seen []evidence
}

func (w *witness) note(ev evidence) {
	w.mu.Lock()
	w.seen = append(w.seen, ev)
	w.mu.Unlock()
}

func (w *witness) get(path string) (*Resource, bool) {
	r, ok := w.s.content.Get(path)
	ev := evidence{key: path, present: ok}
	if ok {
		ev.tag = r.ETag
	}
	w.note(ev)
	return r, ok
}

func (w *witness) ETagFor(path string) (etag.Tag, bool) {
	r, ok := w.get(path)
	if !ok {
		return etag.Tag{}, false
	}
	return r.ETag, true
}

// StylesheetBody logs its lookup separately from ETagFor's of the same path:
// if Content moved between the two, the log holds both validators, no
// verification can satisfy both, and the map is rebuilt instead of pairing
// one version's tag with another's children.
func (w *witness) StylesheetBody(path string) (string, bool) {
	r, ok := w.get(path)
	if !ok || !decorate.IsCSS(r.ContentType) {
		return "", false
	}
	return r.text(), true
}

func (w *witness) crossOrigin(absURL string) (etag.Tag, bool) {
	t, ok := w.s.opts.MapOptions.CrossOriginETag(absURL)
	w.note(evidence{key: absURL, tag: t, present: ok, cross: true})
	return t, ok
}

// resolve runs the resolve phase for an already-extracted page and encodes
// the result. The request's context flows into the fan-out, so an abandoned
// request stops resolving instead of completing the whole BFS.
func (s *Server) resolve(ctx context.Context, refs []core.Ref) *resolvedMap {
	// Sized for the page's own references plus a stylesheet's worth of
	// children, so the log rarely regrows.
	w := &witness{s: s, seen: make([]evidence, 0, len(refs)+len(refs)/4+4)}
	opts := s.opts.MapOptions
	if opts.CrossOriginETag != nil {
		opts.CrossOriginETag = w.crossOrigin
	}
	m := core.ResolveRefsContext(ctx, refs, w, opts)
	rm := &resolvedMap{hdr: []string{m.Encode()}, entries: len(m), seen: w.seen}
	if s.recorder != nil {
		rm.base = m
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
	built := rm == nil || !s.verified(rm)
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
	hdr, entries := rm.hdr, rm.entries
	// Recorded extras are per session, so they ride on top of the shared
	// map for this response only and never enter the slot.
	if m := s.withRecorded(rm.base, sessionID, p); m != nil {
		hdr, entries = []string{m.Encode()}, len(m)
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
