package core

import (
	"encoding/json"
	"strings"
	"testing"
	"testing/quick"

	"cachecatalyst/internal/etag"
)

// fakeResolver is a Resolver backed by maps.
type fakeResolver struct {
	tags map[string]etag.Tag
	css  map[string]string
}

func (f *fakeResolver) ETagFor(path string) (etag.Tag, bool) {
	t, ok := f.tags[path]
	return t, ok
}

func (f *fakeResolver) StylesheetBody(path string) (string, bool) {
	b, ok := f.css[path]
	return b, ok
}

func tag(s string) etag.Tag { return etag.Tag{Opaque: s} }

func TestEncodeDecodeRoundTrip(t *testing.T) {
	m := ETagMap{
		"/a.css":      tag("a1"),
		"/b.js":       tag("b2"),
		"/img/d.jpg":  {Opaque: "d4", Weak: true},
		"/q?x=1&y=2":  tag("q5"),
		`/weird"path`: tag("w6"),
	}
	got, err := DecodeMap(m.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(m) {
		t.Fatalf("got %d entries, want %d", len(got), len(m))
	}
	for p, want := range m {
		if got[p] != want {
			t.Errorf("%q = %v, want %v", p, got[p], want)
		}
	}
}

func TestEncodeCanonical(t *testing.T) {
	m := ETagMap{"/z": tag("1"), "/a": tag("2")}
	enc := m.Encode()
	if !strings.Contains(enc, `"/a"`) || strings.Index(enc, `"/a"`) > strings.Index(enc, `"/z"`) {
		t.Fatalf("keys not sorted: %s", enc)
	}
	if enc != m.Encode() {
		t.Fatal("encoding not deterministic")
	}
}

// TestWriteJSONStringMatchesMarshal pins the hand-rolled string encoder to
// encoding/json's default output byte for byte: the wire form must not
// drift from what a JavaScript Service Worker (or any JSON parser) was
// tested against, including the HTML-escaping of <, >, and &.
func TestWriteJSONStringMatchesMarshal(t *testing.T) {
	cases := []string{
		"", "/a.css", `"v123"`, `W/"weak"`, "back\\slash",
		"<script>&amp;</script>", "ctrl\x00\x01\x1f", "tab\tnl\ncr\r", "bs\bff\f",
		"unicode-é  ", "invalid-\xff\xfe-utf8",
		"/path?q=a&b=<c>", "mixed \"quote\" and ü",
	}
	for _, s := range cases {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("Marshal(%q): %v", s, err)
		}
		var b strings.Builder
		writeJSONString(&b, s)
		if b.String() != string(want) {
			t.Errorf("writeJSONString(%q) = %s, want %s", s, b.String(), want)
		}
	}
}

func TestDecodeEmpty(t *testing.T) {
	for _, in := range []string{"", "  ", "{}"} {
		m, err := DecodeMap(in)
		if err != nil || len(m) != 0 {
			t.Errorf("DecodeMap(%q) = %v, %v", in, m, err)
		}
	}
}

func TestDecodeMalformedJSON(t *testing.T) {
	if _, err := DecodeMap("{not json"); err == nil {
		t.Fatal("expected error")
	}
}

func TestDecodeSkipsBadTags(t *testing.T) {
	m, err := DecodeMap(`{"/ok":"\"v1\"","/bad":"W/unquoted"}`)
	if err != nil {
		t.Fatal(err)
	}
	if len(m) != 1 {
		t.Fatalf("got %v", m)
	}
	if m["/ok"] != tag("v1") {
		t.Fatalf("ok entry = %v", m["/ok"])
	}
}

func TestWireSizeMatchesHeaderCost(t *testing.T) {
	m := ETagMap{"/a.css": tag("a1")}
	want := len("X-Etag-Config: " + m.Encode() + "\r\n")
	if got := m.WireSize(); got != want {
		t.Fatalf("WireSize = %d, want %d", got, want)
	}
	if (ETagMap{}).WireSize() >= m.WireSize() {
		t.Fatal("wire size should grow with entries")
	}
}

func TestBuildMapFigure1(t *testing.T) {
	res := &fakeResolver{tags: map[string]etag.Tag{
		"/a.css": tag("ea"),
		"/b.js":  tag("eb"),
		"/d.jpg": tag("ed"),
	}}
	html := `<html><head><link rel="stylesheet" href="a.css"><script src="b.js"></script></head>
		<body><img src="d.jpg"></body></html>`
	m := BuildMap("/index.html", html, res, BuildOptions{})
	if len(m) != 3 {
		t.Fatalf("map = %v", m)
	}
	for p, want := range res.tags {
		if m[p] != want {
			t.Errorf("%q = %v, want %v", p, m[p], want)
		}
	}
}

func TestBuildMapRecursesIntoCSS(t *testing.T) {
	res := &fakeResolver{
		tags: map[string]etag.Tag{
			"/css/a.css":    tag("a"),
			"/css/deep.css": tag("deep"),
			"/css/bg.png":   tag("bg"),
			"/fonts/f.woff": tag("f"),
		},
		css: map[string]string{
			"/css/a.css":    `@import "deep.css"; .x { background: url(bg.png); }`,
			"/css/deep.css": `.y { src: url(../fonts/f.woff); }`,
		},
	}
	m := BuildMap("/", `<link rel="stylesheet" href="/css/a.css">`, res, BuildOptions{})
	for _, p := range []string{"/css/a.css", "/css/deep.css", "/css/bg.png", "/fonts/f.woff"} {
		if _, ok := m[p]; !ok {
			t.Errorf("missing %q in %v", p, m)
		}
	}
}

func TestBuildMapImportCycleTerminates(t *testing.T) {
	res := &fakeResolver{
		tags: map[string]etag.Tag{"/a.css": tag("a"), "/b.css": tag("b")},
		css: map[string]string{
			"/a.css": `@import "b.css";`,
			"/b.css": `@import "a.css";`,
		},
	}
	m := BuildMap("/", `<link rel="stylesheet" href="/a.css">`, res, BuildOptions{})
	if len(m) != 2 {
		t.Fatalf("map = %v", m)
	}
}

func TestBuildMapSkipsCrossOrigin(t *testing.T) {
	res := &fakeResolver{tags: map[string]etag.Tag{"/local.js": tag("l")}}
	html := `<script src="/local.js"></script>
		<script src="https://cdn.example.com/remote.js"></script>
		<img src="//other.example/img.png">`
	m := BuildMap("/index.html", html, res, BuildOptions{})
	if len(m) != 1 {
		t.Fatalf("cross-origin leaked into map: %v", m)
	}
}

func TestBuildMapSkipsMissingResources(t *testing.T) {
	res := &fakeResolver{tags: map[string]etag.Tag{}}
	m := BuildMap("/", `<img src="/ghost.png">`, res, BuildOptions{})
	if len(m) != 0 {
		t.Fatalf("nonexistent resource in map: %v", m)
	}
}

func TestBuildMapResolvesRelativePaths(t *testing.T) {
	res := &fakeResolver{tags: map[string]etag.Tag{
		"/blog/style.css": tag("s"),
		"/shared/app.js":  tag("j"),
	}}
	html := `<link rel=stylesheet href="style.css"><script src="../shared/app.js"></script>`
	m := BuildMap("/blog/post.html", html, res, BuildOptions{})
	if _, ok := m["/blog/style.css"]; !ok {
		t.Errorf("relative href unresolved: %v", m)
	}
	if _, ok := m["/shared/app.js"]; !ok {
		t.Errorf("dot-dot href unresolved: %v", m)
	}
}

func TestBuildMapKeepsQueryStrings(t *testing.T) {
	res := &fakeResolver{tags: map[string]etag.Tag{"/app.js?v=3": tag("v3")}}
	m := BuildMap("/", `<script src="/app.js?v=3"></script>`, res, BuildOptions{})
	if _, ok := m["/app.js?v=3"]; !ok {
		t.Fatalf("query string lost: %v", m)
	}
}

func TestDecide(t *testing.T) {
	m := ETagMap{"/a.css": tag("v2"), "/weak.js": {Opaque: "w", Weak: true}}
	tests := []struct {
		name   string
		path   string
		cached etag.Tag
		want   Decision
	}{
		{"match serves from cache", "/a.css", tag("v2"), ServeFromCache},
		{"mismatch fetches", "/a.css", tag("v1"), FetchFromNetwork},
		{"no cached copy fetches", "/a.css", etag.Tag{}, FetchFromNetwork},
		{"uncovered path fetches", "/unknown.js", tag("x"), FetchFromNetwork},
		{"weak cached vs strong map fetches", "/a.css", etag.Tag{Opaque: "v2", Weak: true}, FetchFromNetwork},
		{"weak map tag allows weak match", "/weak.js", tag("w"), ServeFromCache},
	}
	for _, tt := range tests {
		if got := Decide(m, tt.path, tt.cached); got != tt.want {
			t.Errorf("%s: Decide = %v, want %v", tt.name, got, tt.want)
		}
	}
}

func TestDecisionString(t *testing.T) {
	if ServeFromCache.String() != "serve-from-cache" || FetchFromNetwork.String() != "fetch-from-network" {
		t.Fatal("Decision strings wrong")
	}
}

// Property: Encode/Decode is lossless for arbitrary path/tag content.
func TestEncodeDecodeQuick(t *testing.T) {
	f := func(paths []string, seeds []uint64) bool {
		m := ETagMap{}
		for i, p := range paths {
			if p == "" {
				continue
			}
			var seed uint64
			if i < len(seeds) {
				seed = seeds[i]
			}
			m["/"+p] = etag.ForVersion(p, seed)
		}
		got, err := DecodeMap(m.Encode())
		if err != nil || len(got) != len(m) {
			return false
		}
		for p, want := range m {
			if got[p] != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property (safety): Decide never serves from cache when the cached tag
// differs from the map's current tag — CacheCatalyst must not introduce
// staleness.
func TestDecideNeverServesStaleQuick(t *testing.T) {
	f := func(path string, vCached, vCurrent uint64) bool {
		p := "/" + path
		m := ETagMap{p: etag.ForVersion(p, vCurrent)}
		d := Decide(m, p, etag.ForVersion(p, vCached))
		if vCached == vCurrent {
			return d == ServeFromCache
		}
		return d == FetchFromNetwork
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBuildMapHonorsBaseHref(t *testing.T) {
	res := &fakeResolver{tags: map[string]etag.Tag{
		"/assets/v2/app.js":   tag("a"),
		"/assets/v2/site.css": tag("s"),
	}}
	html := `<html><head><base href="/assets/v2/">
		<link rel="stylesheet" href="site.css"><script src="app.js"></script></head></html>`
	m := BuildMap("/index.html", html, res, BuildOptions{})
	for _, p := range []string{"/assets/v2/app.js", "/assets/v2/site.css"} {
		if _, ok := m[p]; !ok {
			t.Errorf("base-href resolution missed %q: %v", p, m)
		}
	}
}
