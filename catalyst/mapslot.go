package catalyst

import (
	"context"
	"net/http"
	"sort"
	"sync"
	"time"

	"cachecatalyst/internal/core"
	"cachecatalyst/internal/etag"
)

// resolved is the outcome of one resolve of a render's references, kept in
// the render's slot so a later request can ship it again instead of
// re-walking stylesheets and re-encoding a byte-identical header. It carries
// its own proof obligation: seen lists every lookup the resolve made, and
// the map is reused only while verify finds each still answering as
// recorded. The resolve is a deterministic function of the render's
// references, the options, and exactly those answers (a stylesheet's body,
// and so its children, is committed to by its validator), so a verified
// resolved is by construction what a fresh resolve would produce at that
// instant. Immutable once stored.
//
// Validators rather than pointers to what answered: pointers would pin every
// replaced resource (bodies and all) for as long as the render stays cached.
type resolved struct {
	// hdr is the encoded map as a ready-to-assign X-Etag-Config value,
	// shared across responses and never mutated; entries is its size.
	hdr     []string
	entries int
	// base is the map itself, kept only where per-request extras ride on
	// top of it (a recording session's, in front of a *server.Server).
	// Read-only.
	base core.ETagMap
	seen []evidence
}

// evidence is one lookup a resolve made — a mapSource lookup, or a
// core.BuildOptions.CrossOriginETag call when cross is set — and what it
// answered: the validator, or absent. Absent answers are evidence too: a
// referenced resource that appears later changes the map.
type evidence struct {
	key     string
	tag     etag.Tag
	present bool
	cross   bool
}

// mapSource is where a map's lookups are answered: the probe cache in front
// of any handler (probeSource), the server's Content in front of a
// *server.Server (contentFront). Each tenant state holds one, chosen at
// construction.
type mapSource interface {
	// lookup answers one lookup of a resolve run for r, whose trace ctx
	// carries: path's validator, whether the resource exists and, for an
	// existing stylesheet, its text.
	lookup(ctx context.Context, r *http.Request, path string) (tag etag.Tag, ok bool, css string, isCSS bool)
	// cached reports whether lookup answers path without a flight, so a
	// resolve makes it inline (core.CachingResolver).
	cached(path string) bool
	// recheck answers one recorded lookup afresh, and until when the
	// answer holds: a zero until means the source cannot answer without
	// resolving again — the probe of key was evicted — and an answer past
	// its until (an expired probe) fails a verification as well.
	recheck(key string, cross bool) (tag etag.Tag, present bool, until time.Time)
}

// verify re-asks every lookup rm rests on of src and reports whether each
// still answers as recorded and holds at now: lookups and tag compares — no
// parsing, no copying, no encoding, no allocation. When until is set it
// receives the earliest moment among those answers (zero when rm rests on
// none), the moment rm stops verifying.
func (rm *resolved) verify(src mapSource, now time.Time, until *time.Time) bool {
	for i := range rm.seen {
		ev := &rm.seen[i]
		tag, present, u := src.recheck(ev.key, ev.cross)
		if !now.Before(u) || present != ev.present || present && tag != ev.tag {
			return false
		}
		if until != nil && (until.IsZero() || u.Before(*until)) {
			*until = u
		}
	}
	return true
}

// resolve runs the resolve phase for refs through src and returns the map
// with every lookup it made — through src, and through opts.CrossOriginETag
// when set — which is the map's evidence. The context flows into the
// fan-out, so an abandoned request stops resolving; a map resolved under a
// done context may be a prefix of the real one and must not be slotted.
func resolve(ctx context.Context, r *http.Request, refs []core.Ref, src mapSource, opts core.BuildOptions) (core.ETagMap, []evidence) {
	// Sized for the page's own references plus a stylesheet's worth of
	// children, so the log rarely regrows.
	w := &witness{src: src, ctx: ctx, r: r, seen: make([]evidence, 0, len(refs)+len(refs)/4+4)}
	if cross := opts.CrossOriginETag; cross != nil {
		opts.CrossOriginETag = func(absURL string) (etag.Tag, bool) {
			t, ok := cross(absURL)
			w.note(evidence{key: absURL, tag: t, present: ok, cross: true})
			return t, ok
		}
	}
	return core.ResolveRefsContext(ctx, refs, w, opts), w.seen
}

// encodeMap returns m's X-Etag-Config value, at most max bytes, and how many
// entries it dropped to fit: the highest-sorting paths, the tail of the
// canonical encoding, which are also deleted from m. Every map the
// middleware ships is encoded here with max at core.MaxEncodedMapBytes, the
// bound core.DecodeMap enforces, so a client never discards a shipped map
// as oversized. The size is checked after encoding: a map that fits costs
// one length compare.
func encodeMap(m core.ETagMap, max int) (string, int) {
	enc := m.Encode()
	if len(enc) <= max {
		return enc, 0
	}
	paths := make([]string, 0, len(m))
	for p := range m {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	// enc is '{', the entries in path order joined by commas, and '}'; keep
	// the longest run of leading entries that fits with its closing brace,
	// measuring each entry by encoding it alone.
	end, kept := 1, 0
	for _, p := range paths {
		next := end + len(core.ETagMap{p: m[p]}.Encode()) - 2
		if kept > 0 {
			next++ // the comma before this entry
		}
		if next+1 > max {
			break
		}
		end, kept = next, kept+1
	}
	for _, p := range paths[kept:] {
		delete(m, p)
	}
	return enc[:end] + "}", len(paths) - kept
}

// witness is the core.CachingResolver a resolve runs through: the source,
// plus a log of every lookup answered. Concurrency > 1 calls it from several
// goroutines, hence the mutex; the order of the log carries no meaning.
type witness struct {
	src  mapSource
	ctx  context.Context
	r    *http.Request
	mu   sync.Mutex
	seen []evidence
}

func (w *witness) note(ev evidence) {
	w.mu.Lock()
	w.seen = append(w.seen, ev)
	w.mu.Unlock()
}

func (w *witness) lookup(path string) (etag.Tag, bool, string, bool) {
	tag, ok, css, isCSS := w.src.lookup(w.ctx, w.r, path)
	w.note(evidence{key: path, tag: tag, present: ok})
	return tag, ok, css, isCSS
}

func (w *witness) ETagFor(path string) (etag.Tag, bool) {
	tag, ok, _, _ := w.lookup(path)
	return tag, ok
}

// StylesheetBody logs its lookup separately from ETagFor's of the same path:
// if the source moved between the two, the log holds both validators, no
// verification can satisfy both, and the map is rebuilt instead of pairing
// one version's tag with another's children.
func (w *witness) StylesheetBody(path string) (string, bool) {
	_, ok, css, isCSS := w.lookup(path)
	if !ok || !isCSS {
		return "", false
	}
	return css, true
}

// Cached implements core.CachingResolver.
func (w *witness) Cached(path string) bool { return w.src.cached(path) }
