// Package core implements the paper's contribution: proactive delivery of
// validation tokens ("CacheCatalyst").
//
// Server side, BuildMap performs the modified-Caddy behaviour of §3: when a
// base HTML file is about to be served, traverse its DOM, extract every
// same-origin resource link (recursing into same-origin stylesheets, since
// CSS pulls in further resources), look up the current ETag of each, and
// emit a link→ETag map. The map travels in the X-Etag-Config response
// header.
//
// Client side, Decide implements the Service Worker's per-request choice:
// serve from cache with zero round trips when the cached ETag equals the
// proactively delivered one, otherwise fetch from the origin.
package core

import (
	"encoding/json"
	"fmt"
	"net/url"
	"sort"
	"strings"
	"unicode/utf8"

	"cachecatalyst/internal/cssparse"
	"cachecatalyst/internal/etag"
)

// HeaderName is the response header that carries the ETag map, as named in
// the paper.
const HeaderName = "X-Etag-Config"

// ServiceWorkerPath is the well-known path the server registers the
// CacheCatalyst Service Worker under.
const ServiceWorkerPath = "/cc-sw.js"

// ETagMap maps same-origin resource paths (absolute, origin-relative) to
// their current entity tags.
type ETagMap map[string]etag.Tag

// Get returns the tag for path and whether the map covers it.
func (m ETagMap) Get(path string) (etag.Tag, bool) {
	t, ok := m[path]
	return t, ok
}

// Encode serializes the map to its wire form: a compact JSON object with
// sorted keys, values in entity-tag wire syntax. JSON keeps the header
// parseable by the JavaScript Service Worker in the real deployment, and
// sorting keeps the encoding canonical for tests and size accounting.
func (m ETagMap) Encode() string {
	paths := make([]string, 0, len(m))
	size := 2 // braces
	for p := range m {
		paths = append(paths, p)
		// Quotes, colon, comma, and the tag's own quoting; escaped
		// strings may exceed this, which only costs one regrow.
		size += len(p) + len(m[p].Opaque) + 12
	}
	sort.Strings(paths)
	var b strings.Builder
	b.Grow(size)
	b.WriteByte('{')
	for i, p := range paths {
		if i > 0 {
			b.WriteByte(',')
		}
		writeJSONString(&b, p)
		b.WriteByte(':')
		writeJSONString(&b, m[p].String())
	}
	b.WriteByte('}')
	return b.String()
}

// writeJSONString appends s as a JSON string literal, byte-identical to
// json.Marshal's default (HTML-escaping) output. ASCII — including the
// quotes every entity-tag wire form carries — is escaped inline; only
// non-ASCII input defers to encoding/json, which owns the subtle cases
// (U+2028/U+2029 line separators, invalid UTF-8) so the encoding stays
// canonical.
// jsonSafe marks the ASCII bytes that pass through a JSON string literal
// unescaped under json.Marshal's defaults: printable, and none of the JSON
// or HTML-sensitive metacharacters.
var jsonSafe = func() (t [utf8.RuneSelf]bool) {
	for c := byte(0x20); c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
	}
	return
}()

func writeJSONString(b *strings.Builder, s string) {
	for i := 0; i < len(s); i++ {
		if s[i] >= utf8.RuneSelf {
			enc, _ := json.Marshal(s) // strings always marshal
			b.Write(enc)
			return
		}
	}
	b.WriteByte('"')
	start := 0
	for i := 0; i < len(s); i++ {
		c := s[i]
		if jsonSafe[c] {
			continue
		}
		b.WriteString(s[start:i])
		switch c {
		case '"', '\\':
			b.WriteByte('\\')
			b.WriteByte(c)
		case '\n':
			b.WriteString(`\n`)
		case '\r':
			b.WriteString(`\r`)
		case '\t':
			b.WriteString(`\t`)
		case '\b':
			b.WriteString(`\b`)
		case '\f':
			b.WriteString(`\f`)
		default: // <, >, & (HTML escaping) and control bytes
			const hex = "0123456789abcdef"
			b.WriteString(`\u00`)
			b.WriteByte(hex[c>>4])
			b.WriteByte(hex[c&0xf])
		}
		start = i + 1
	}
	b.WriteString(s[start:])
	b.WriteByte('"')
}

// WireSizeOf returns the byte cost of carrying an encoded map in a response
// header, including the header name, separator and CRLF. The evaluation
// charges this against the base-HTML transfer: proactive tokens are not
// free, and the honesty of Figure 3 depends on counting them.
func WireSizeOf(encoded string) int {
	return len(HeaderName) + len(": ") + len(encoded) + len("\r\n")
}

// MaxEncodedMapBytes bounds the header value DecodeMap will touch. A
// legitimate map for even a thousand-resource page encodes well under
// 100 KB; anything larger is hostile or corrupt, and parsing it would let
// one bad response burn client CPU and memory.
const MaxEncodedMapBytes = 1 << 20

// DecodeMap parses the wire form produced by Encode. Unknown or malformed
// entries are skipped rather than failing the whole map, so one bad tag
// cannot disable caching for a page; oversized or structurally invalid
// input is rejected with an error (callers treat that like an absent
// header). DecodeMap never panics, whatever the input — the client's whole
// fault tolerance rests on that.
//
// A header in exactly the form Encode writes decodes in one pass, its keys
// and opaque tags substrings of s. Any other form — whitespace between
// tokens, an escape other than a tag's \", a control byte or one above
// ASCII, an empty opaque — goes to encoding/json, which gives every input
// the same result as the one pass gives the inputs it takes.
func DecodeMap(s string) (ETagMap, error) {
	if len(s) > MaxEncodedMapBytes {
		return nil, fmt.Errorf("etag map: %d bytes exceeds limit %d", len(s), MaxEncodedMapBytes)
	}
	if m, ok := decodeEncoded(s); ok {
		return m, nil
	}
	if strings.TrimSpace(s) == "" {
		return ETagMap{}, nil
	}
	var raw map[string]string
	if err := json.Unmarshal([]byte(s), &raw); err != nil {
		return nil, fmt.Errorf("etag map: %w", err)
	}
	m := make(ETagMap, len(raw))
	for p, v := range raw {
		if t, ok := etag.Parse(v); ok {
			m[p] = t
		}
	}
	return m, nil
}

// plainByte marks the bytes a JSON string literal carries as themselves
// and Encode writes unescaped inside a key or an opaque tag: printable
// ASCII other than the quote and the backslash.
var plainByte = func() (t [256]bool) {
	for c := 0x20; c < 0x7f; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return
}()

// decodeEncoded decodes s if it is in Encode's exact form: {"key":"\"tag\""
// or "key":"W/\"tag\"" entries, comma-separated, with plain bytes only in
// keys and tags and a non-empty tag. It reports false for any other input.
// A repeated key keeps its last tag, as encoding/json keeps the last value.
func decodeEncoded(s string) (ETagMap, bool) {
	if len(s) < 2 || s[0] != '{' {
		return nil, false
	}
	m := make(ETagMap, strings.Count(s, ",")+1)
	if s[1] == '}' {
		return m, len(s) == 2
	}
	// plainRun returns the end of the run of plain bytes from i.
	plainRun := func(i int) int {
		for i < len(s) && plainByte[s[i]] {
			i++
		}
		return i
	}
	i := 1
	for {
		if i >= len(s) || s[i] != '"' {
			return nil, false
		}
		end := plainRun(i + 1)
		if !strings.HasPrefix(s[end:], `":"`) {
			return nil, false
		}
		key := s[i+1 : end]
		i = end + 3
		weak := strings.HasPrefix(s[i:], `W/`)
		if weak {
			i += 2
		}
		if !strings.HasPrefix(s[i:], `\"`) {
			return nil, false
		}
		i += 2
		end = plainRun(i)
		if end == i || !strings.HasPrefix(s[end:], `\""`) {
			return nil, false
		}
		m[key] = etag.Tag{Opaque: s[i:end], Weak: weak}
		i = end + 3
		if i >= len(s) {
			return nil, false
		}
		switch s[i] {
		case ',':
			i++
		case '}':
			return m, i == len(s)-1
		default:
			return nil, false
		}
	}
}

// Resolver supplies the server-side facts BuildMap needs about the site
// being served.
type Resolver interface {
	// ETagFor returns the current entity tag for the resource at an
	// origin-relative path, and whether the resource exists.
	ETagFor(path string) (etag.Tag, bool)
	// StylesheetBody returns the content of a same-origin stylesheet for
	// recursive link extraction, and whether it exists (and is CSS).
	StylesheetBody(path string) (string, bool)
}

// CachingResolver is a Resolver that can tell, without blocking, which
// lookups it would answer from what it already holds. ResolveRefsContext
// makes those lookups inline on the calling goroutine and fans out only the
// rest, so a level whose references are all held starts no goroutine.
type CachingResolver interface {
	Resolver
	// Cached reports whether ETagFor and StylesheetBody of path would
	// answer without blocking.
	Cached(path string) bool
}

// BuildOptions tunes BuildMap.
type BuildOptions struct {
	// CrossOriginETag, when set, resolves third-party resources: given an
	// absolute URL it returns the resource's current entity tag. This is
	// the paper's §6 second future-work item — "the main server fetches
	// those resources itself and obtains their ETags". Cross-origin
	// entries are keyed in the map by their absolute URL. When nil,
	// cross-origin references are skipped, matching the preliminary
	// implementation.
	CrossOriginETag func(absURL string) (etag.Tag, bool)
	// Concurrency bounds the worker fan-out of the resolve phase: up to
	// this many references are resolved at once, so a cold page with N
	// subresources costs roughly its slowest probe instead of the sum of
	// all of them. Values below 2 resolve sequentially, which is also the
	// default — a Resolver must be safe for concurrent use before a
	// caller opts in.
	Concurrency int
}

// maxCSSDepth bounds recursion through @import chains: enough for
// real-world nesting while terminating on import cycles. No caller sets
// another depth.
const maxCSSDepth = 5

// BuildMap inspects a base HTML document and produces the ETag map for its
// same-origin subresources, recursing into same-origin stylesheets. pageURL
// is the origin-relative URL of the document (used to resolve relative
// links); cross-origin references are skipped, exactly as the preliminary
// implementation in the paper does.
//
// BuildMap is the one-shot composition of the two phases in twophase.go;
// callers that can reuse extraction across requests (the middleware's
// rendered-page cache, the server's page-render cache) call ExtractPageRefs
// and ResolveRefs separately.
func BuildMap(pageURL string, htmlBody string, res Resolver, opts BuildOptions) ETagMap {
	return ResolveRefs(ExtractPageRefs(pageURL, htmlBody), res, opts)
}

// CrossOriginKey is the canonical map key for a third-party resource.
func CrossOriginKey(host, escapedPath, rawQuery string) string {
	if escapedPath == "" {
		escapedPath = "/"
	}
	key := "https://" + host + escapedPath
	if rawQuery != "" {
		key += "?" + rawQuery
	}
	return key
}

// resolveSameOrigin resolves ref against base and returns the
// origin-relative path (with query), or ok=false for cross-origin or
// non-fetchable references.
func resolveSameOrigin(base *url.URL, ref string) (string, bool) {
	if isPlainPath(ref) && (base.Scheme == "" || base.Scheme == "http" || base.Scheme == "https") {
		// The common case, and its own key. ref is cut from the document it
		// was extracted from; the copy keeps a cached key from pinning that
		// whole page.
		return strings.Clone(ref), true
	}
	return resolveSameOriginURL(base, ref)
}

// resolveSameOriginURL is resolveSameOrigin's general route, through
// url.Parse and ResolveReference.
func resolveSameOriginURL(base *url.URL, ref string) (string, bool) {
	if !cssparse.IsFetchable(ref) {
		return "", false
	}
	u, err := url.Parse(strings.TrimSpace(ref))
	if err != nil {
		return "", false
	}
	resolved := base.ResolveReference(u)
	if resolved.Host != "" && resolved.Host != base.Host {
		return "", false // cross-origin: deferred to future work in the paper
	}
	if resolved.Scheme != "" && resolved.Scheme != "http" && resolved.Scheme != "https" {
		return "", false
	}
	path := resolved.EscapedPath()
	if path == "" {
		path = "/"
	}
	if resolved.RawQuery != "" {
		path += "?" + resolved.RawQuery
	}
	return path, true
}

// isPlainPath reports whether ref is an absolute path that url.Parse plus
// ResolveReference plus EscapedPath would return unchanged under any http(s)
// base: a leading '/' but not "//" (a network path), only unreserved bytes
// and '/' (nothing to escape, no query or fragment), and no "." or ".."
// segment (nothing to remove).
func isPlainPath(ref string) bool {
	if len(ref) == 0 || ref[0] != '/' || len(ref) > 1 && ref[1] == '/' {
		return false
	}
	seg := 1 // start of the current segment
	for i := 1; i <= len(ref); i++ {
		if i == len(ref) || ref[i] == '/' {
			if s := ref[seg:i]; s == "." || s == ".." {
				return false
			}
			seg = i + 1
			continue
		}
		if c := ref[i]; !('a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9' || c == '-' || c == '.' || c == '_' || c == '~') {
			return false
		}
	}
	return true
}

// Decision is the Service Worker's verdict for one request.
type Decision int

// Decisions.
const (
	// FetchFromNetwork: no usable cached copy (miss, or the proactive tag
	// differs, or the map does not cover the resource and we cannot prove
	// freshness) — forward the request to the origin.
	FetchFromNetwork Decision = iota
	// ServeFromCache: cached copy proven current by the proactive token —
	// respond locally with zero network round trips.
	ServeFromCache
)

func (d Decision) String() string {
	if d == ServeFromCache {
		return "serve-from-cache"
	}
	return "fetch-from-network"
}

// Decide implements the client-side algorithm of §3: compare the entity tag
// of the cached copy (zero Tag when there is no cached copy) with the
// proactively delivered map entry for the resource.
//
// The conservative default matters: if the map does not cover the path —
// e.g. a JS-discovered resource the server's static extraction missed — the
// Service Worker forwards the request, preserving correctness at the cost
// of the round trip the paper's future work wants to eliminate.
func Decide(m ETagMap, path string, cached etag.Tag) Decision {
	current, covered := m.Get(path)
	if !covered || cached.IsZero() {
		return FetchFromNetwork
	}
	if etag.StrongMatch(cached, current) || etag.WeakMatch(cached, current) && current.Weak {
		return ServeFromCache
	}
	return FetchFromNetwork
}
