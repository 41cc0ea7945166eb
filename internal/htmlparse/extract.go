package htmlparse

import (
	"slices"
	"strings"

	"cachecatalyst/internal/cssparse"
)

// ResourceKind classifies a discovered subresource; the browser emulator
// uses it for scheduling and the corpus generator for size distributions.
type ResourceKind int

// Resource kinds.
const (
	KindStylesheet ResourceKind = iota
	KindScript
	KindImage
	KindFont
	KindMedia
	KindDocument // iframes
	KindFetch    // preload/prefetch of unknown type, object/embed
)

func (k ResourceKind) String() string {
	switch k {
	case KindStylesheet:
		return "stylesheet"
	case KindScript:
		return "script"
	case KindImage:
		return "image"
	case KindFont:
		return "font"
	case KindMedia:
		return "media"
	case KindDocument:
		return "document"
	case KindFetch:
		return "fetch"
	}
	return "unknown"
}

// Resource is a subresource reference discovered in a document.
type Resource struct {
	// URL as written in the document (unresolved).
	URL  string
	Kind ResourceKind
	// Async is true for resources that do not block the parser
	// (async/defer scripts, prefetch links).
	Async bool
	// Offset of the referencing attribute's element in the source.
	Offset int
}

// ExtractResources walks a parsed document and returns every subresource a
// browser would fetch, in document order, excluding non-fetchable URLs
// (data:, javascript:, fragments). Duplicate URLs are retained; callers that
// need a set deduplicate (a browser coalesces identical in-flight fetches,
// which internal/browser models).
func ExtractResources(doc *Node) []Resource {
	var out []Resource
	doc.Walk(func(n *Node) bool {
		if n.Type != ElementNode {
			return true
		}
		parent := ""
		if n.Parent != nil {
			parent = n.Parent.Data
		}
		out = appendElementRefs(out, n.Data, n.Attrs, parent, n.Offset)
		if n.Data == "style" {
			out = appendStyleRefs(out, n.Text(), n.Offset)
		}
		return true
	})
	return out
}

// ExtractFromHTML is the resource list of ExtractPage.
func ExtractFromHTML(src string) []Resource {
	rs, _, _ := ExtractPage(src)
	return rs
}

// BaseHref returns the document's <base href> value, if present — the
// reference that relative URLs resolve against instead of the document URL
// (only the first base element counts, per WHATWG HTML).
func BaseHref(doc *Node) (string, bool) {
	base := doc.Find("base")
	if base == nil {
		return "", false
	}
	return baseHref(base.Attrs)
}

func baseHref(attrs []Attr) (string, bool) {
	href, ok := attr(attrs, "href")
	if !ok || strings.TrimSpace(href) == "" {
		return "", false
	}
	return strings.TrimSpace(href), true
}

// ExtractPage returns ExtractResources(Parse(src)) and BaseHref(Parse(src))
// without building the tree. It keeps only what the tree walk reads: a stack
// of open element names, driven by Parse's implied-end, void-element and
// end-tag rules (a <source> still sees its <picture> parent), and, per open
// <style>, where its references belong. A style's text is everything inside
// it, so its references are known only when it closes; they are spliced
// back in at the style element's own position, ahead of anything nested in
// it, as the tree's pre-order walk emits them.
func ExtractPage(src string) (rs []Resource, base string, hasBase bool) {
	type styleFrame struct {
		depth int // index of the style element in stack
		at    int // len(rs) after the style element's own attributes
		off   int // the style element's Offset
		from  int // index into text of the style's first chunk
	}
	z := Tokenizer{in: src, reuseAttrs: true}
	stack := make([]string, 1, 16) // stack[0] is the document: no name
	var styles []styleFrame
	var text []string // text chunks since the outermost open style opened
	sawBase := false

	// popTo closes every element from stack[n] up, settling the open
	// styles among them innermost first.
	popTo := func(n int) {
		for len(styles) > 0 && styles[len(styles)-1].depth >= n {
			f := styles[len(styles)-1]
			styles = styles[:len(styles)-1]
			css := strings.Join(text[f.from:], "")
			if len(styles) == 0 {
				text = text[:0]
			}
			rs = slices.Insert(rs, f.at, appendStyleRefs(nil, css, f.off)...)
		}
		stack = stack[:n]
	}

	for {
		tok, ok := z.Next()
		if !ok {
			break
		}
		switch tok.Type {
		case TextToken:
			if len(styles) > 0 && tok.Data != "" {
				text = append(text, tok.Data)
			}
		case StartTagToken, SelfClosingTagToken:
			if len(stack) > 1 && impliesEnd(tok.Data, stack[len(stack)-1]) {
				popTo(len(stack) - 1)
			}
			if !sawBase && tok.Data == "base" {
				sawBase = true
				base, hasBase = baseHref(tok.Attrs)
			}
			rs = appendElementRefs(rs, tok.Data, tok.Attrs, stack[len(stack)-1], tok.Offset)
			if tok.Type == StartTagToken && !isVoid(tok.Data) {
				if tok.Data == "style" {
					styles = append(styles, styleFrame{depth: len(stack), at: len(rs), off: tok.Offset, from: len(text)})
				}
				stack = append(stack, tok.Data)
			}
		case EndTagToken:
			for i := len(stack) - 1; i >= 1; i-- {
				if stack[i] == tok.Data {
					popTo(i)
					break
				}
			}
		}
	}
	popTo(1)
	return rs, base, hasBase
}

// appendElementRefs appends the subresources one element references through
// its attributes: the rule table ExtractResources and ExtractPage share.
// parent is the enclosing element's tag name ("" at the document root). A
// <style> element's text is the callers' to add, through appendStyleRefs.
func appendElementRefs(out []Resource, tag string, attrs []Attr, parent string, off int) []Resource {
	add := func(url string, kind ResourceKind, async bool) {
		out = appendResource(out, url, kind, async, off)
	}
	// Inline style attributes can reference images/fonts.
	if style, ok := attr(attrs, "style"); ok {
		for _, ref := range cssparse.ExtractRefs(style) {
			add(ref.URL, KindImage, false)
		}
	}
	switch tag {
	case "script":
		if src, ok := attr(attrs, "src"); ok {
			_, async := attr(attrs, "async")
			_, deferred := attr(attrs, "defer")
			add(src, KindScript, async || deferred)
		}
	case "link":
		rel, _ := attr(attrs, "rel")
		href, ok := attr(attrs, "href")
		if !ok {
			break
		}
		switch {
		case relContains(rel, "stylesheet"):
			add(href, KindStylesheet, false)
		case relContains(rel, "icon"), relContains(rel, "apple-touch-icon"):
			add(href, KindImage, true)
		case relContains(rel, "preload"), relContains(rel, "modulepreload"):
			as, _ := attr(attrs, "as")
			add(href, kindForPreloadAs(as), false)
		case relContains(rel, "prefetch"):
			add(href, KindFetch, true)
		}
	case "img":
		if src, ok := attr(attrs, "src"); ok {
			add(src, KindImage, false)
		}
		if srcset, ok := attr(attrs, "srcset"); ok {
			for _, u := range ParseSrcset(srcset) {
				add(u, KindImage, false)
			}
		}
	case "source":
		kind := KindMedia
		if parent == "picture" {
			kind = KindImage
		}
		if src, ok := attr(attrs, "src"); ok {
			add(src, kind, false)
		}
		if srcset, ok := attr(attrs, "srcset"); ok {
			for _, u := range ParseSrcset(srcset) {
				add(u, kind, false)
			}
		}
	case "video":
		if src, ok := attr(attrs, "src"); ok {
			add(src, KindMedia, true)
		}
		if poster, ok := attr(attrs, "poster"); ok {
			add(poster, KindImage, false)
		}
	case "audio":
		if src, ok := attr(attrs, "src"); ok {
			add(src, KindMedia, true)
		}
	case "iframe":
		if src, ok := attr(attrs, "src"); ok {
			add(src, KindDocument, false)
		}
	case "embed":
		if src, ok := attr(attrs, "src"); ok {
			add(src, KindFetch, false)
		}
	case "object":
		if data, ok := attr(attrs, "data"); ok {
			add(data, KindFetch, false)
		}
	case "input":
		if typ, _ := attr(attrs, "type"); strings.EqualFold(typ, "image") {
			if src, ok := attr(attrs, "src"); ok {
				add(src, KindImage, false)
			}
		}
	case "track":
		if src, ok := attr(attrs, "src"); ok {
			add(src, KindFetch, true)
		}
	}
	return out
}

// appendStyleRefs appends the url() and @import references of a <style>
// element's text; the element is at offset off.
func appendStyleRefs(out []Resource, css string, off int) []Resource {
	for _, ref := range cssparse.ExtractRefs(css) {
		kind := KindImage
		if ref.Import {
			kind = KindStylesheet
		}
		out = appendResource(out, ref.URL, kind, false, off)
	}
	return out
}

// appendResource appends one reference unless it is not fetchable.
func appendResource(out []Resource, url string, kind ResourceKind, async bool, off int) []Resource {
	if !cssparse.IsFetchable(url) {
		return out
	}
	return append(out, Resource{URL: strings.TrimSpace(url), Kind: kind, Async: async, Offset: off})
}

// relContains reports whether the space-separated rel attribute value
// contains the given link type (case-insensitively).
func relContains(rel, typ string) bool {
	for _, f := range strings.Fields(rel) {
		if strings.EqualFold(f, typ) {
			return true
		}
	}
	return false
}

func kindForPreloadAs(as string) ResourceKind {
	switch strings.ToLower(as) {
	case "style":
		return KindStylesheet
	case "script":
		return KindScript
	case "image":
		return KindImage
	case "font":
		return KindFont
	case "video", "audio":
		return KindMedia
	case "document":
		return KindDocument
	default:
		return KindFetch
	}
}

// ParseSrcset returns the URLs of an image srcset attribute
// ("a.jpg 1x, b.jpg 2x" → ["a.jpg", "b.jpg"]). Width/density descriptors
// are discarded; the emulated browser fetches one candidate, but the ETag
// map must cover all of them.
func ParseSrcset(v string) []string {
	var out []string
	for _, candidate := range strings.Split(v, ",") {
		fields := strings.Fields(candidate)
		if len(fields) == 0 {
			continue
		}
		out = append(out, fields[0])
	}
	return out
}
