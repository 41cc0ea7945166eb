// Package baselines implements the web-acceleration comparators §5 of the
// paper discusses: HTTP/2 Server Push with the push-all policy, and a
// Remote Dependency Resolution (RDR) proxy.
//
// Both are modelled as a bundling origin: the navigation response carries,
// besides the HTML, the full responses of the resources the server (or
// proxy) decided to send ahead. That is exactly the data-flow of h2 push
// (streams ride the same connection, no request round trips) and of RDR
// bulk delivery, while keeping the transport model honest — the extra bytes
// pay real transmission time on the shared downlink.
//
//   - PushAll pushes every statically discoverable same-origin resource,
//     whether or not the client has it cached: the bandwidth-wasting policy
//     the paper's §5 critique targets.
//   - RDR performs full dependency resolution proxy-side — including
//     JS-discovered resources, which a headless browser at the proxy finds
//     by executing scripts — and ships everything.
package baselines

import (
	"encoding/json"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"

	"cachecatalyst/internal/core"
	"cachecatalyst/internal/cssparse"
	"cachecatalyst/internal/htmlparse"
	"cachecatalyst/internal/httpcache"
	"cachecatalyst/internal/jsexec"
	"cachecatalyst/internal/netsim"
)

// BundleHeader carries the bundle manifest on navigation responses.
const BundleHeader = "X-Bundle"

// Policy selects which resources the bundling origin sends ahead.
type Policy int

// Policies.
const (
	// PushAll bundles the statically discoverable resources (what an h2
	// server can promise from markup inspection).
	PushAll Policy = iota
	// RDR bundles the transitive closure including JS-discovered
	// resources (what a remote headless browser resolves).
	RDR
)

func (p Policy) String() string {
	if p == RDR {
		return "rdr"
	}
	return "push-all"
}

// Entry describes one bundled resource in the manifest.
type Entry struct {
	Path         string `json:"p"`
	Status       int    `json:"s"`
	ContentType  string `json:"ct"`
	ETag         string `json:"et,omitempty"`
	CacheControl string `json:"cc,omitempty"`
	Len          int    `json:"n"`
}

// NewBundleOrigin wraps an origin (normally server.NewOrigin of a
// catalyst-enabled server, whose X-Etag-Config header provides the static
// resource list) with bundling of navigation responses under the given
// policy. Non-HTML requests pass through unchanged. A non-nil memo, shared
// by the bundling origins of one site's worlds, assembles each distinct
// bundle once; a nil memo assembles it on every navigation.
func NewBundleOrigin(inner netsim.Origin, policy Policy, memo *BundleMemo) netsim.Origin {
	return &bundleOrigin{inner: inner, policy: policy, memo: memo}
}

type bundleOrigin struct {
	inner  netsim.Origin
	policy Policy
	memo   *BundleMemo
}

// RoundTrip implements netsim.Origin.
func (b *bundleOrigin) RoundTrip(req *netsim.Request) *httpcache.Response {
	resp := b.inner.RoundTrip(req)
	if resp.StatusCode != http.StatusOK ||
		!strings.HasPrefix(resp.Header.Get("Content-Type"), "text/html") {
		return resp
	}
	var paths []string
	switch b.policy {
	case RDR:
		paths = b.resolveAll(req.Path, resp.Text())
	default:
		paths = staticPaths(resp)
	}

	// Every navigation fetches its parts; the memo decides whether the
	// bundle they make has been assembled before.
	parts := make([]part, 1, 1+len(paths))
	parts[0] = part{Entry: Entry{
		Path:        req.Path,
		Status:      resp.StatusCode,
		ContentType: resp.Header.Get("Content-Type"),
		ETag:        resp.Header.Get("Etag"),
		Len:         len(resp.Body),
	}, body: resp.Body}
	for _, p := range paths {
		sub := b.inner.RoundTrip(&netsim.Request{Method: "GET", Path: p, Header: make(http.Header)})
		if sub.StatusCode != http.StatusOK {
			continue
		}
		parts = append(parts, part{Entry: Entry{
			Path:         p,
			Status:       sub.StatusCode,
			ContentType:  sub.Header.Get("Content-Type"),
			ETag:         sub.Header.Get("Etag"),
			CacheControl: sub.Header.Get("Cache-Control"),
			Len:          len(sub.Body),
		}, body: sub.Body})
	}
	bd, ok := b.memo.bundle(parts)
	if !ok {
		return resp // bundling is best-effort; fall back to plain HTML
	}
	// The header is the navigation's own: it carries this world's Date
	// and map.
	out := &httpcache.Response{StatusCode: resp.StatusCode, Header: resp.Header.Clone(), Body: bd.body}
	out.Header.Set(BundleHeader, bd.manifest)
	out.Header.Set("Content-Length", strconv.Itoa(len(bd.body)))
	return out
}

// BundleMemo holds every bundle the bundling origins sharing it have
// assembled: the concatenated body and the marshalled manifest. Both are a
// pure function of the parts, in order — each part's manifest entry and its
// body — and a body is never written once it is served (DESIGN.md §3), so a
// bundle is keyed by the entries and by the identity of each body: a
// pointer to its first byte and its length. The key holds the bodies, and
// with them their arrays, alive. A different part body, or a part added or
// dropped, is a different bundle. A sweep makes one memo per site, hands it
// to the bundling origins of every world of that site, and drops it with the
// site, so each bundle is assembled once per site instead of once per world
// and link condition.
//
// A BundleMemo is not safe for concurrent use; it needs no lock because a
// site's worlds run one after another on one goroutine.
type BundleMemo struct {
	// bundles lists the bundles of each page body, found by the page
	// body's identity and told apart by their parts.
	bundles map[bodyID][]*bundle
}

// part is one bundled response: its manifest entry and its body.
type part struct {
	Entry
	body []byte
}

// bodyID is a body's identity: its first byte and its length.
type bodyID struct {
	first *byte
	n     int
}

func idOf(body []byte) bodyID {
	if len(body) == 0 {
		return bodyID{}
	}
	return bodyID{&body[0], len(body)}
}

// bundle is one assembled bundle and the parts it was assembled from.
type bundle struct {
	parts    []part
	body     []byte
	manifest string
}

// NewBundleMemo returns an empty memo.
func NewBundleMemo() *BundleMemo {
	return &BundleMemo{bundles: make(map[bodyID][]*bundle)}
}

// sameParts reports whether a and b are the same entries over the same
// bodies, in the same order.
func sameParts(a, b []part) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Entry != b[i].Entry || idOf(a[i].body) != idOf(b[i].body) {
			return false
		}
	}
	return true
}

// bundle returns the bundle of parts, parts[0] being the page: the memo's,
// or, on a miss or without a memo, a new one, which a memo keeps. ok is
// false if the manifest cannot be marshalled.
func (m *BundleMemo) bundle(parts []part) (bd *bundle, ok bool) {
	page := idOf(parts[0].body)
	if m != nil {
		for _, have := range m.bundles[page] {
			if sameParts(have.parts, parts) {
				return have, true
			}
		}
	}
	size := 0
	entries := make([]Entry, len(parts))
	for i, p := range parts {
		entries[i] = p.Entry
		size += len(p.body)
	}
	manifest, err := json.Marshal(entries)
	if err != nil {
		return nil, false
	}
	body := make([]byte, 0, size)
	for _, p := range parts {
		body = append(body, p.body...)
	}
	bd = &bundle{parts: parts, body: body, manifest: string(manifest)}
	if m != nil {
		m.bundles[page] = append(m.bundles[page], bd)
	}
	return bd, true
}

// Each calls fn with every bundle m holds: the manifest entries and bodies
// of its parts, in order, and the assembled body and manifest. It is the
// memo's differential test's view; fn must not write what it is handed.
func (m *BundleMemo) Each(fn func(entries []Entry, parts [][]byte, body []byte, manifest string)) {
	for _, bds := range m.bundles {
		for _, bd := range bds {
			entries := make([]Entry, len(bd.parts))
			parts := make([][]byte, len(bd.parts))
			for i, p := range bd.parts {
				entries[i], parts[i] = p.Entry, p.body
			}
			fn(entries, parts, bd.body, bd.manifest)
		}
	}
}

// staticPaths extracts the statically discoverable same-origin resource
// list from the catalyst map header the inner server computed.
func staticPaths(resp *httpcache.Response) []string {
	m, err := core.DecodeMap(resp.Header.Get(core.HeaderName))
	if err != nil {
		return nil
	}
	paths := make([]string, 0, len(m))
	for p := range m {
		paths = append(paths, p)
	}
	// Deterministic bundle order.
	sort.Strings(paths)
	return paths
}

// resolveAll performs proxy-side dependency resolution: parse HTML, fetch
// and parse stylesheets, "execute" scripts, recursing until the frontier is
// empty — what the headless browser of an RDR proxy does over its
// low-latency path to the origin.
func (b *bundleOrigin) resolveAll(pagePath, html string) []string {
	seen := map[string]bool{pagePath: true}
	var order []string
	base, err := url.Parse(pagePath)
	if err != nil {
		base = &url.URL{Path: "/"}
	}

	var frontier []string
	addRef := func(from *url.URL, ref string) {
		if !cssparse.IsFetchable(ref) {
			return
		}
		u, err := url.Parse(strings.TrimSpace(ref))
		if err != nil {
			return
		}
		abs := from.ResolveReference(u)
		if abs.Host != "" {
			return // cross-origin cannot be proxied (the paper's TLS critique)
		}
		p := abs.EscapedPath()
		if abs.RawQuery != "" {
			p += "?" + abs.RawQuery
		}
		if p == "" || seen[p] {
			return
		}
		seen[p] = true
		order = append(order, p)
		frontier = append(frontier, p)
	}

	for _, r := range htmlparse.ExtractFromHTML(html) {
		addRef(base, r.URL)
	}
	for len(frontier) > 0 {
		p := frontier[0]
		frontier = frontier[1:]
		sub := b.inner.RoundTrip(&netsim.Request{Method: "GET", Path: p, Header: make(http.Header)})
		if sub.StatusCode != http.StatusOK {
			continue
		}
		ct := sub.Header.Get("Content-Type")
		from, err := url.Parse(p)
		if err != nil {
			continue
		}
		switch {
		case strings.HasPrefix(ct, "text/css"):
			for _, ref := range cssparse.ExtractRefs(sub.Text()) {
				addRef(from, ref.URL)
			}
		case strings.HasPrefix(ct, "text/javascript"):
			for _, u := range jsexec.ExtractFetches(sub.Text()) {
				addRef(&url.URL{Path: "/"}, u)
			}
		}
	}
	return order
}

// DecodeManifest decodes a bundle manifest, the BundleHeader value of a
// bundled navigation; nil means it is none.
func DecodeManifest(manifest string) []Entry {
	var entries []Entry
	if json.Unmarshal([]byte(manifest), &entries) != nil {
		return nil
	}
	return entries
}

// Split unpacks a bundled navigation response, whose manifest decodes to
// entries, into the page response and the bundled subresource responses
// keyed by path, each with a header map of its own. ok=false means the
// response carries no (valid) bundle.
func Split(resp *httpcache.Response, entries []Entry) (page *httpcache.Response, pushed map[string]*httpcache.Response, ok bool) {
	if len(entries) == 0 {
		return nil, nil, false
	}
	total := 0
	for _, e := range entries {
		if e.Len < 0 {
			return nil, nil, false
		}
		total += e.Len
	}
	if total != len(resp.Body) {
		return nil, nil, false
	}
	pushed = make(map[string]*httpcache.Response, len(entries)-1)
	off := 0
	for i, e := range entries {
		h := make(http.Header)
		h.Set("Content-Type", e.ContentType)
		if e.ETag != "" {
			h.Set("Etag", e.ETag)
		}
		if e.CacheControl != "" {
			h.Set("Cache-Control", e.CacheControl)
		}
		sub := &httpcache.Response{
			StatusCode: e.Status,
			Header:     h,
			// A full slice expression: an append to one part must not
			// write over the next part of the shared bundle body.
			Body: resp.Body[off : off+e.Len : off+e.Len],
		}
		off += e.Len
		if i == 0 {
			// The page keeps its original headers (incl. the catalyst
			// map, which bundled modes simply ignore).
			page = &httpcache.Response{StatusCode: e.Status, Header: resp.Header.Clone(), Body: sub.Body}
			page.Header.Del(BundleHeader)
		} else {
			pushed[e.Path] = sub
		}
	}
	return page, pushed, true
}
