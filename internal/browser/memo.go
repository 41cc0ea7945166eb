package browser

import (
	"cachecatalyst/internal/cssparse"
	"cachecatalyst/internal/htmlparse"
	"cachecatalyst/internal/jsexec"
)

// ParseMemo remembers the references the browser extracted from HTML,
// stylesheet and script bodies, keyed by the body's bytes: identical bytes
// are one entry, whatever path or version they were served under. Each
// extraction is a pure function of the body, so an entry is exactly what a
// parse would return.
//
// Every Browser reads through a memo of its own. A sweep makes one memo per
// site, hands it to every world of that site beside the site's body store
// (WithParseMemo), and drops it with the site.
//
// An entry pins memory: its key is httpcache.Response.Text of the body that
// missed, and the references are substrings of it, so the entry keeps that
// body's allocation alive for as long as the memo lives. A site's stored
// bodies live that long anyway. Only a body exactly as the origin sent it
// becomes a key of a shared memo; any other body the browser parses (a part
// carved out of a bundle, a body delivered from a cache, a patched page) is
// looked up there but stored in the browser's own memo, which lives only as
// long as the browser, so a shared memo never holds on to a buffer one
// navigation allocated.
//
// Entries are shared and read-only: a caller must not append to, sort or
// otherwise write a slice it gets from the memo.
//
// A ParseMemo is not safe for concurrent use; it needs no lock because a
// site's worlds run one after another on one goroutine, and a Browser is
// not safe for concurrent use either.
type ParseMemo struct {
	pages   map[string]pageRefs
	sheets  map[string][]cssparse.Ref
	scripts map[string][]string
}

// pageRefs is htmlparse.ExtractPage's result for one HTML body.
type pageRefs struct {
	resources []htmlparse.Resource
	base      string
	hasBase   bool
}

// NewParseMemo returns an empty memo.
func NewParseMemo() *ParseMemo {
	m := &ParseMemo{
		pages:   make(map[string]pageRefs),
		sheets:  make(map[string][]cssparse.Ref),
		scripts: make(map[string][]string),
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

// recall returns the entry for text from shared or else from own, and on a
// miss parses text and stores the result in into (one of the two).
func recall[V any](shared, own, into map[string]V, text string, parse func(string) V) V {
	if v, ok := shared[text]; ok {
		return v
	}
	if v, ok := own[text]; ok {
		return v
	}
	v := parse(text)
	into[text] = v
	return v
}

// into is the memo a missed body's entry goes in: the shared one for a body
// exactly as the origin sent it, the browser's own for any other.
func (b *Browser) into(asSent bool) *ParseMemo {
	if asSent {
		return b.memo
	}
	return b.own
}

// pageRefs returns the references and base href of an HTML body.
func (b *Browser) pageRefs(text string, asSent bool) pageRefs {
	return recall(b.memo.pages, b.own.pages, b.into(asSent).pages, text, func(s string) pageRefs {
		rs, base, ok := htmlparse.ExtractPage(s)
		return pageRefs{rs, base, ok}
	})
}

// sheetRefs returns the references of a stylesheet body.
func (b *Browser) sheetRefs(text string, asSent bool) []cssparse.Ref {
	return recall(b.memo.sheets, b.own.sheets, b.into(asSent).sheets, text, func(s string) []cssparse.Ref {
		return cssparse.ExtractRefs(s)
	})
}

// scriptFetches returns the URLs a script body fetches when executed.
func (b *Browser) scriptFetches(text string, asSent bool) []string {
	return recall(b.memo.scripts, b.own.scripts, b.into(asSent).scripts, text, func(s string) []string {
		return jsexec.ExtractFetches(s)
	})
}
