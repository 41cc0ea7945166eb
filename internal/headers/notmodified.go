package headers

import (
	"net/http"
	"time"

	"cachecatalyst/internal/etag"
)

// NotModified evaluates a GET or HEAD request's preconditions against the
// selected representation with RFC 9110 §13.2.2's precedence, reporting
// whether the answer is 304 Not Modified. If-None-Match, when present,
// decides alone, by weak comparison (§13.1.2); a representation without a
// tag (hasTag false) matches no listed tag. Otherwise If-Modified-Since is
// compared with lastModified at the one-second granularity of HTTP dates;
// an unparsable date, or a zero lastModified, means no 304.
func NotModified(req http.Header, tag etag.Tag, hasTag bool, lastModified time.Time) bool {
	if inm := Value(req, "If-None-Match"); inm != "" {
		return hasTag && !etag.NoneMatch(inm, tag)
	}
	ims := Value(req, "If-Modified-Since")
	if ims == "" || lastModified.IsZero() {
		return false
	}
	since, ok := ParseHTTPDate(ims)
	return ok && !lastModified.Truncate(time.Second).After(since)
}

// MergeNotModified is the header update RFC 9111 §4.3.4 prescribes when a 304
// Not Modified freshens a stored response: every field the 304 carries
// replaces the stored field of that name, and every other stored field is
// kept. Two kinds of field in the 304 are not taken. Content-Length describes
// the 304's own empty body, not the stored one. Hop-by-hop fields (RFC 9110
// §7.6.1) describe one connection, and a cache never stores them (RFC 9111
// §3.1).
//
// The merged fields are written into dst, which is made when nil, and dst is
// returned; fields of dst that neither input names are left alone. Every
// value slice written is the input's own, cut to its length and capacity:
// nothing is copied, and an append by whoever holds the result reallocates
// instead of writing into an input's array. No value is written in place
// (the ownership rule on httpcache.Response), so the sharing is safe.
func MergeNotModified(dst, stored, notModified http.Header) http.Header {
	if dst == nil {
		dst = make(http.Header, len(stored))
	}
	for k, vs := range stored {
		if _, replaced := notModified[k]; !replaced || keptFrom304(k) {
			dst[k] = vs[:len(vs):len(vs)]
		}
	}
	for k, vs := range notModified {
		if !keptFrom304(k) {
			dst[k] = vs[:len(vs):len(vs)]
		}
	}
	return dst
}

// keptFrom304Fields are the fields of a 304 that never replace a stored
// field: Content-Length, and the hop-by-hop fields.
var keptFrom304Fields = [...]string{"Content-Length", "Connection", "Keep-Alive", "Proxy-Connection",
	"Proxy-Authenticate", "Proxy-Authorization", "Te", "Trailer", "Transfer-Encoding", "Upgrade"}

// keptFrom304 reports whether a field of a 304 must not replace the stored
// field of that name: Content-Length, or a hop-by-hop field. A name matches
// in any letter case, as its textproto.CanonicalMIMEHeaderKey form would;
// comparing lengths first turns most names away unread.
func keptFrom304(key string) bool {
	for _, f := range keptFrom304Fields {
		if len(f) == len(key) && equalFoldASCII(f, key) {
			return true
		}
	}
	return false
}

// equalFoldASCII reports whether a and b, of equal length, are equal under
// ASCII case folding, the only folding CanonicalMIMEHeaderKey does.
func equalFoldASCII(a, b string) bool {
	for i := 0; i < len(a); i++ {
		x, y := a[i], b[i]
		if 'A' <= x && x <= 'Z' {
			x += 'a' - 'A'
		}
		if 'A' <= y && y <= 'Z' {
			y += 'a' - 'A'
		}
		if x != y {
			return false
		}
	}
	return true
}

// Value returns the first value of the field key in h, or "" if h has
// none. key must be in canonical form (textproto.CanonicalMIMEHeaderKey(key)
// == key), as every constant field name the client reads is; Value then
// gives what h.Get(key) gives, without canonicalising key on every call.
func Value(h http.Header, key string) string {
	if vs := h[key]; len(vs) > 0 {
		return vs[0]
	}
	return ""
}
