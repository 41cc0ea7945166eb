package browser

import (
	"net/url"
	"strings"

	"cachecatalyst/internal/baselines"
	"cachecatalyst/internal/cssparse"
	"cachecatalyst/internal/htmlparse"
	"cachecatalyst/internal/httpcache"
	"cachecatalyst/internal/jsexec"
)

// ParseMemo remembers what the browser derives from HTML, stylesheet and
// script bodies: each body's references as its parser wrote them, and those
// references resolved against every document URL the body was served at.
// Both are pure functions of the body (and of the URL), so an entry is
// exactly what a parse and a resolve would return.
//
// A body is found by identity first: the address of its first byte and its
// length. A body is never written after it enters an httpcache.Response
// (DESIGN.md §3), and the key itself holds the array alive, so one identity
// names one content for as long as the memo lives. Only on an identity miss
// (a body in an array of its own, such as a part carved out of a push
// bundle) is the body looked up by its bytes. A parsed body is stored under
// both keys. Resolved references are keyed by the parsed body and the
// document URL: host and path for HTML and stylesheets, host alone for
// scripts, which resolve against "/".
//
// Every Browser reads through a memo of its own. A sweep makes one memo per
// site, hands it to every world of that site beside the site's body store
// (WithParseMemo), and drops it with the site.
//
// An entry pins memory: its keys hold the body that missed, and the
// references are substrings of it, so the entry keeps that body's
// allocation alive for as long as the memo lives. A site's stored bodies
// live that long anyway. Only a body exactly as the origin sent it becomes a
// key of a shared memo, or has its references resolved there; any other
// body the browser reads (a part carved out of a bundle, a body delivered
// from a cache, a patched page) is looked up there but stored in the
// browser's own memo, which lives only as long as the browser, so a shared
// memo never holds on to a buffer one navigation allocated.
//
// A push or RDR bundle's manifest is decoded once per memo, keyed by text.
//
// Entries are shared and read-only: a caller must not append to, sort or
// otherwise write a slice it gets from the memo.
//
// A ParseMemo is not safe for concurrent use; it needs no lock because a
// site's worlds run one after another on one goroutine, and a Browser is
// not safe for concurrent use either.
type ParseMemo struct {
	byID      map[bodyID]*parsed
	byText    map[bodyText]*parsed
	resolved  map[docRef][]target
	manifests map[string][]baselines.Entry
}

// bodyKind is the parser a body is read with.
type bodyKind uint8

const (
	htmlBody bodyKind = iota
	cssBody
	jsBody
)

// bodyID names a body by identity: its first byte's address (nil when it is
// empty) and its length.
type bodyID struct {
	first *byte
	n     int
	kind  bodyKind
}

// bodyText names a body by its bytes.
type bodyText struct {
	text string
	kind bodyKind
}

// parsed is one body's references, in the order its parser returned them,
// and an HTML body's base href.
type parsed struct {
	refs    []ref
	base    string
	hasBase bool
}

// ref is one reference as written in a body. kind is what the loader
// fetches it as (a script's fetches get theirs once resolved); blocking
// marks a stylesheet or synchronous script in HTML, and an @import in a
// stylesheet, which blocks the first paint when its parent sheet does.
type ref struct {
	url      string
	kind     htmlparse.ResourceKind
	blocking bool
}

// target is a reference resolved against its document: what the loader
// fetches, in the body's order, unfetchable references left out.
type target struct {
	host, path string
	kind       htmlparse.ResourceKind
	blocking   bool
}

// docRef keys one parsed body's references resolved against one document.
type docRef struct {
	body       *parsed
	host, path string
}

// NewParseMemo returns an empty memo.
func NewParseMemo() *ParseMemo {
	m := &ParseMemo{
		byID:      make(map[bodyID]*parsed),
		byText:    make(map[bodyText]*parsed),
		resolved:  make(map[docRef][]target),
		manifests: make(map[string][]baselines.Entry),
	}
	if testHookNewMemo != nil {
		testHookNewMemo(m)
	}
	return m
}

// testHookNewMemo, set only by tests before any memo is made, sees every
// memo NewParseMemo returns.
var testHookNewMemo func(*ParseMemo)

// WithParseMemo makes the browser look up every body's references in m, and
// store there those of bodies exactly as the origin sent them. The browsers
// sharing m must run on one goroutine. Returns b for chaining at
// construction.
func (b *Browser) WithParseMemo(m *ParseMemo) *Browser {
	b.memo = m
	return b
}

// into is the memo a new entry goes in: the shared one for a body exactly as
// the origin sent it, the browser's own for any other.
func (b *Browser) into(asSent bool) *ParseMemo {
	if asSent {
		return b.memo
	}
	return b.own
}

// references returns the references of resp's body, read as kind k and
// resolved against https://host+path, and how many references the body
// writes, fetchable or not. A script's path is always "/".
func (b *Browser) references(k bodyKind, resp *httpcache.Response, host, path string, asSent bool) ([]target, int) {
	e, shared := b.parsed(k, resp, asSent)
	key := docRef{e, host, path}
	if ts, ok := b.memo.resolved[key]; ok {
		return ts, len(e.refs)
	}
	if ts, ok := b.own.resolved[key]; ok {
		return ts, len(e.refs)
	}
	ts := e.resolve(k, host, path)
	b.into(asSent && shared).resolved[key] = ts
	return ts, len(e.refs)
}

// parsed returns the entry of resp's body, parsing it on a miss, and whether
// the entry is in the shared memo.
func (b *Browser) parsed(k bodyKind, resp *httpcache.Response, asSent bool) (*parsed, bool) {
	id := bodyID{n: len(resp.Body), kind: k}
	if id.n > 0 {
		id.first = &resp.Body[0]
	}
	if e, ok := b.memo.byID[id]; ok {
		return e, true
	}
	if e, ok := b.own.byID[id]; ok {
		return e, false
	}
	text := bodyText{resp.Text(), k}
	if e, ok := b.memo.byText[text]; ok {
		return e, true
	}
	if e, ok := b.own.byText[text]; ok {
		return e, false
	}
	e := parse(k, text.text)
	into := b.into(asSent)
	into.byID[id], into.byText[text] = e, e
	return e, into == b.memo
}

// manifest returns the decoded bundle manifest resp carries, nil for none,
// from the memo (baselines.DecodeManifest on a miss, which the memo keeps).
func (b *Browser) manifest(resp *httpcache.Response) []baselines.Entry {
	text := resp.Header.Get(baselines.BundleHeader)
	entries, ok := b.memo.manifests[text]
	if !ok {
		entries = baselines.DecodeManifest(text)
		b.memo.manifests[text] = entries
	}
	return entries
}

// parse extracts a body's references with kind's parser.
func parse(k bodyKind, text string) *parsed {
	e := &parsed{}
	switch k {
	case htmlBody:
		rs, base, ok := htmlparse.ExtractPage(text)
		e.base, e.hasBase = base, ok
		e.refs = make([]ref, len(rs))
		for i, r := range rs {
			blocking := r.Kind == htmlparse.KindStylesheet || r.Kind == htmlparse.KindScript && !r.Async
			e.refs[i] = ref{r.URL, r.Kind, blocking}
		}
	case cssBody:
		rs := cssparse.ExtractRefs(text)
		e.refs = make([]ref, len(rs))
		for i, r := range rs {
			e.refs[i] = ref{r.URL, htmlparse.KindImage, r.Import}
			if r.Import {
				e.refs[i].kind = htmlparse.KindStylesheet
			}
		}
	case jsBody:
		us := jsexec.ExtractFetches(text)
		e.refs = make([]ref, len(us))
		for i, u := range us {
			e.refs[i] = ref{url: u}
		}
	}
	return e
}

// resolve resolves the entry's references against https://host+path, or
// against the HTML body's base href resolved there first.
func (e *parsed) resolve(k bodyKind, host, path string) []target {
	base := &url.URL{Scheme: "https", Host: host, Path: path}
	if e.hasBase {
		if bu, err := url.Parse(e.base); err == nil {
			base = base.ResolveReference(bu)
		}
	}
	ts := make([]target, 0, len(e.refs))
	for _, r := range e.refs {
		h, p, ok := resolveRef(base, r.url)
		if !ok {
			continue
		}
		if k == jsBody {
			r.kind = htmlparse.KindImage
			if strings.HasSuffix(p, ".js") {
				r.kind = htmlparse.KindScript
			}
		}
		ts = append(ts, target{h, p, r.kind, r.blocking})
	}
	return ts
}

// hintTargets resolves the preload links of an early-hints header block
// against the navigation URL. A header is not a body, so nothing is
// remembered.
func hintTargets(host, path string, links []string) []target {
	base := &url.URL{Scheme: "https", Host: host, Path: path}
	var ts []target
	for _, u := range parseLinkPreloads(links) {
		if h, p, ok := resolveRef(base, u); ok {
			ts = append(ts, target{h, p, kindForPath(p), false})
		}
	}
	return ts
}

// resolveRef turns a document reference into (host, origin-relative path).
func resolveRef(base *url.URL, ref string) (string, string, bool) {
	if !cssparse.IsFetchable(ref) {
		return "", "", false
	}
	u, err := url.Parse(strings.TrimSpace(ref))
	if err != nil {
		return "", "", false
	}
	abs := base.ResolveReference(u)
	p := abs.EscapedPath()
	if p == "" {
		p = "/"
	}
	if abs.RawQuery != "" {
		p += "?" + abs.RawQuery
	}
	return abs.Host, p, true
}
