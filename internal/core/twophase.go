// Two-phase map building: a pure *extract* phase that turns a document into
// a deduplicated reference list, and a *resolve* phase that turns references
// into entity tags through a Resolver, optionally fanning out across a
// bounded worker pool.
//
// The split exists for the server's hot path. Extraction depends only on the
// document bytes, so callers can memoize it per (URL, content hash) and skip
// the tokenizer and tree builder entirely on unchanged pages; resolution
// depends on live server state (current ETags), so it runs per response —
// but its work items are independent, so a cold page with N subresources can
// cost ~max(probe) instead of sum(probe).
package core

import (
	"context"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"

	"cachecatalyst/internal/cssparse"
	"cachecatalyst/internal/etag"
	"cachecatalyst/internal/htmlparse"
)

// Ref is one subresource reference extracted from an HTML document or a
// stylesheet, in document order.
type Ref struct {
	// Key is the ETagMap key: the origin-relative path (with query) for
	// same-origin references, or the canonical absolute URL (see
	// CrossOriginKey) for third-party ones.
	Key string
	// CSS marks a same-origin stylesheet whose body must be fetched and
	// recursed into during resolution.
	CSS bool
	// Cross marks a third-party reference, resolvable only through
	// BuildOptions.CrossOriginETag.
	Cross bool
}

// ExtractPageRefs is the extract phase for a base HTML document: extract
// its references off the token stream (htmlparse.ExtractPage, no tree),
// honor <base href>, resolve every subresource reference against the page
// URL, and return the deduplicated reference list in document order. It is a
// pure function of its arguments — no Resolver, no I/O — so callers may
// cache the result keyed by the document's content. No returned Key shares
// memory with htmlBody, so a cached reference list does not pin the page.
func ExtractPageRefs(pageURL, htmlBody string) []Ref {
	base, err := url.Parse(pageURL)
	if err != nil {
		base = &url.URL{Path: "/"}
	}
	rs, href, ok := htmlparse.ExtractPage(htmlBody)
	// <base href> redirects relative resolution for the whole document.
	if ok {
		if bu, err := url.Parse(href); err == nil {
			base = base.ResolveReference(bu)
		}
	}
	refs := make([]Ref, 0, len(rs))
	index := make(map[string]int, len(rs))
	for _, r := range rs {
		refs = appendRef(refs, index, base, r.URL, r.Kind == htmlparse.KindStylesheet)
	}
	return refs
}

// ExtractCSSRefs is the extract phase for a same-origin stylesheet at
// cssPath: url() and @import references resolved against the stylesheet's
// own location. Like ExtractPageRefs it is pure.
func ExtractCSSRefs(cssPath, body string) []Ref {
	base, err := url.Parse(cssPath)
	if err != nil {
		return nil
	}
	crs := cssparse.ExtractRefs(body)
	refs := make([]Ref, 0, len(crs))
	index := make(map[string]int, len(crs))
	for _, r := range crs {
		refs = appendRef(refs, index, base, r.URL, r.Import)
	}
	return refs
}

// appendRef resolves one raw reference against base and appends it to refs
// unless it is a duplicate (in which case a stylesheet occurrence upgrades
// the existing entry's CSS flag) or unresolvable.
func appendRef(refs []Ref, index map[string]int, base *url.URL, raw string, isCSS bool) []Ref {
	if path, ok := resolveSameOrigin(base, raw); ok {
		if i, dup := index[path]; dup {
			refs[i].CSS = refs[i].CSS || isCSS
			return refs
		}
		index[path] = len(refs)
		return append(refs, Ref{Key: path, CSS: isCSS})
	}
	key, ok := resolveCrossOrigin(base, raw)
	if !ok {
		return refs
	}
	if _, dup := index[key]; dup {
		return refs
	}
	index[key] = len(refs)
	return append(refs, Ref{Key: key, Cross: true})
}

// resolveCrossOrigin canonicalizes a third-party reference into its map key,
// or ok=false for same-origin, non-fetchable, or non-http(s) references.
// Stylesheet recursion is deliberately not attempted cross-origin: the main
// server would have to proxy arbitrary third-party CSS, which §6 of the
// paper leaves out of scope.
func resolveCrossOrigin(base *url.URL, ref string) (string, bool) {
	if !cssparse.IsFetchable(ref) {
		return "", false
	}
	u, err := url.Parse(strings.TrimSpace(ref))
	if err != nil {
		return "", false
	}
	abs := base.ResolveReference(u)
	if abs.Host == "" || abs.Host == base.Host {
		return "", false
	}
	if abs.Scheme == "" {
		abs.Scheme = "https"
	}
	if abs.Scheme != "http" && abs.Scheme != "https" {
		return "", false
	}
	return CrossOriginKey(abs.Host, abs.EscapedPath(), abs.RawQuery), true
}

// ResolveRefs is the resolve phase: look up the current entity tag of every
// reference, recursing into same-origin stylesheets up to
// maxCSSDepth, and assemble the ETagMap.
//
// Resolution proceeds in breadth-first levels (the page's own references,
// then the references their stylesheets introduced, and so on); within a
// level the lookups are independent and fan out across up to
// BuildOptions.Concurrency goroutines, except those a CachingResolver
// holds, which are made inline. The Resolver must be safe for
// concurrent use when Concurrency > 1. Whatever the fan-out, the assembled
// map is deterministic: it holds every reference that resolved. The map's
// size is bounded where it is encoded (catalyst's encodeMap), not here.
func ResolveRefs(refs []Ref, res Resolver, opts BuildOptions) ETagMap {
	return ResolveRefsContext(context.Background(), refs, res, opts)
}

// ResolveRefsContext is ResolveRefs with cancellation: once ctx is done no
// further Resolver lookups are started — workers finish the call they are
// in, drain, and the map assembled so far is returned. An abandoned page
// build (a client that disconnected mid-render) therefore stops fanning
// probes out at the origin instead of completing the whole BFS. Callers
// that cache assembled maps must not cache a cancelled resolve's partial
// result; check ctx.Err() after the call.
func ResolveRefsContext(ctx context.Context, refs []Ref, res Resolver, opts BuildOptions) ETagMap {
	depth := maxCSSDepth
	type outcome struct {
		tag      etag.Tag
		ok       bool
		children []Ref
	}
	seen := make(map[string]bool, len(refs))
	seenCSS := make(map[string]bool)
	out := make(ETagMap, len(refs))

	level := make([]Ref, 0, len(refs))
	for _, r := range refs {
		if !seen[r.Key] {
			seen[r.Key] = true
			level = append(level, r)
		}
	}
	for len(level) > 0 && ctx.Err() == nil {
		// Decide recursion up front, while still single-threaded, so the
		// workers never touch the shared seen/seenCSS maps.
		recurse := make([]bool, len(level))
		for i, r := range level {
			if r.CSS && !r.Cross && depth > 0 && !seenCSS[r.Key] {
				seenCSS[r.Key] = true
				recurse[i] = true
			}
		}
		outs := make([]outcome, len(level))
		resolve := func(i int) {
			r := level[i]
			if r.Cross {
				if opts.CrossOriginETag == nil {
					return
				}
				if t, ok := opts.CrossOriginETag(r.Key); ok {
					outs[i] = outcome{tag: t, ok: true}
				}
				return
			}
			t, ok := res.ETagFor(r.Key)
			if !ok {
				return
			}
			o := outcome{tag: t, ok: true}
			if recurse[i] {
				if body, ok := res.StylesheetBody(r.Key); ok {
					o.children = ExtractCSSRefs(r.Key, body)
				}
			}
			outs[i] = o
		}
		if cached, ok := res.(CachingResolver); ok {
			// What the resolver holds is looked up here, one by one; only
			// the rest is worth a goroutine.
			var pending []int
			for i, r := range level {
				switch {
				case r.Cross || !cached.Cached(r.Key):
					pending = append(pending, i)
				case ctx.Err() == nil:
					resolve(i)
				}
			}
			runIndexed(ctx, len(pending), opts.workers(), func(j int) { resolve(pending[j]) })
		} else {
			runIndexed(ctx, len(level), opts.workers(), resolve)
		}
		depth--
		var next []Ref
		for i, r := range level {
			if outs[i].ok {
				out[r.Key] = outs[i].tag
			}
			for _, c := range outs[i].children {
				if !seen[c.Key] {
					seen[c.Key] = true
					next = append(next, c)
				}
			}
		}
		level = next
	}
	return out
}

// workers returns the resolve fan-out width; anything below 2 means inline
// sequential resolution.
func (o BuildOptions) workers() int {
	if o.Concurrency > 1 {
		return o.Concurrency
	}
	return 1
}

// runIndexed calls fn(i) for every i in [0, n), fanning the calls out across
// at most workers goroutines. workers <= 1 runs inline with zero goroutine
// overhead. Once ctx is done no further calls start; in-flight calls finish
// and every worker goroutine exits before runIndexed returns — cancellation
// never leaks a worker.
func runIndexed(ctx context.Context, n, workers int, fn func(int)) {
	if workers > n {
		workers = n
	}
	done := ctx.Done()
	if workers <= 1 {
		for i := 0; i < n; i++ {
			select {
			case <-done:
				return
			default:
			}
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}
