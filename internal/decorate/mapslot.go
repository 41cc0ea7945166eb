package decorate

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"

	"cachecatalyst/internal/core"
	"cachecatalyst/internal/etag"
)

// Resolved is the outcome of one resolve of a render's references, kept in
// the render's Slot so a later request can ship it again instead of
// re-walking stylesheets and re-encoding a byte-identical header. It carries
// its own proof obligation: seen lists every lookup the resolve made, and
// the map is reused only while Verify finds each still answering as
// recorded. The resolve is a deterministic function of the render's
// references, the options, and exactly those answers (a stylesheet's body,
// and so its children, is committed to by its validator), so a verified
// Resolved is by construction what a fresh resolve would produce at that
// instant. Immutable once stored.
//
// Validators rather than pointers to what answered: pointers would pin every
// replaced resource (bodies and all) for as long as the render stays cached.
type Resolved struct {
	// Hdr is the encoded map as a ready-to-assign X-Etag-Config value,
	// shared across responses and never mutated; Entries is its size.
	Hdr     []string
	Entries int
	// Base is the map itself, kept only where per-request extras ride on
	// top of it (a recording session's, in front of internal/server).
	// Read-only.
	Base core.ETagMap
	seen []Evidence
}

// Evidence is one lookup a resolve made — a Source lookup, or a
// core.BuildOptions.CrossOriginETag call when Cross is set — and what it
// answered: the validator, or absent. Absent answers are evidence too: a
// referenced resource that appears later changes the map.
type Evidence struct {
	Key     string
	Tag     etag.Tag
	Present bool
	Cross   bool
}

// Recheck answers one recorded lookup afresh: the validator key has now and
// whether it is present. held is false when the front end cannot answer
// without resolving again — the middleware's probe of key was evicted or
// has expired — which fails the verification.
type Recheck func(key string, cross bool) (tag etag.Tag, present, held bool)

// Verify re-asks every lookup rm rests on through recheck and reports
// whether each is still held and answers as recorded: lookups and tag
// compares — no parsing, no copying, no encoding, no allocation.
func (rm *Resolved) Verify(recheck Recheck) bool {
	for i := range rm.seen {
		ev := &rm.seen[i]
		tag, present, held := recheck(ev.Key, ev.Cross)
		if !held || present != ev.Present || present && tag != ev.Tag {
			return false
		}
	}
	return true
}

// Slot is the one mutable field a cached render carries: the last map
// resolved for it, reused only while Verify holds. A Resolved is swapped in
// whole, so a reader never sees a torn one.
type Slot struct{ atomic.Pointer[Resolved] }

// Source is where a resolve looks a same-origin reference up: Content in
// front of internal/server, the probe cache in front of any other handler.
// Lookup reports path's validator and whether the resource exists and, for
// an existing stylesheet, its text. A Source that also has a
// Cached(path string) bool method is a core.CachingResolver's other half:
// the lookups it holds are made inline.
type Source interface {
	Lookup(path string) (tag etag.Tag, ok bool, css string, isCSS bool)
}

// Resolve runs the resolve phase for refs through src and returns the map
// with every lookup it made — through src, and through opts.CrossOriginETag
// when set — which NewResolved takes as the map's evidence. The context
// flows into the fan-out, so an abandoned request stops resolving; a map
// resolved under a done context may be a prefix of the real one and must
// not be slotted.
func Resolve(ctx context.Context, refs []core.Ref, src Source, opts core.BuildOptions) (core.ETagMap, []Evidence) {
	// Sized for the page's own references plus a stylesheet's worth of
	// children, so the log rarely regrows.
	w := &witness{src: src, seen: make([]Evidence, 0, len(refs)+len(refs)/4+4)}
	w.cached, _ = src.(interface{ Cached(string) bool })
	if cross := opts.CrossOriginETag; cross != nil {
		opts.CrossOriginETag = func(absURL string) (etag.Tag, bool) {
			t, ok := cross(absURL)
			w.note(Evidence{Key: absURL, Tag: t, Present: ok, Cross: true})
			return t, ok
		}
	}
	return core.ResolveRefsContext(ctx, refs, w, opts), w.seen
}

// NewResolved encodes m, a map Resolve returned, resting on seen, at most
// max bytes (EncodeMap), and reports how many entries the bound dropped.
func NewResolved(m core.ETagMap, seen []Evidence, max int) (rm *Resolved, dropped int) {
	enc, dropped := EncodeMap(m, max)
	return &Resolved{Hdr: []string{enc}, Entries: len(m), seen: seen}, dropped
}

// EncodeMap returns m's X-Etag-Config value, at most max bytes, and how many
// entries it dropped to fit: the highest-sorting paths, the tail of the
// canonical encoding, which are also deleted from m. Both front ends encode
// every map they ship through here with max at core.MaxEncodedMapBytes, the
// bound core.DecodeMap enforces, so a client never discards a shipped map as
// oversized. The size is checked after encoding: a map that fits costs one
// length compare.
func EncodeMap(m core.ETagMap, max int) (string, int) {
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

// witness is the core.CachingResolver a resolve runs through: the Source,
// plus a log of every lookup answered. Concurrency > 1 calls it from several
// goroutines, hence the mutex; the order of the log carries no meaning.
type witness struct {
	src    Source
	cached interface{ Cached(string) bool } // nil: nothing is held
	mu     sync.Mutex
	seen   []Evidence
}

func (w *witness) note(ev Evidence) {
	w.mu.Lock()
	w.seen = append(w.seen, ev)
	w.mu.Unlock()
}

func (w *witness) lookup(path string) (etag.Tag, bool, string, bool) {
	tag, ok, css, isCSS := w.src.Lookup(path)
	w.note(Evidence{Key: path, Tag: tag, Present: ok})
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
func (w *witness) Cached(path string) bool {
	return w.cached != nil && w.cached.Cached(path)
}
