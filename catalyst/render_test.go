package catalyst

import (
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"cachecatalyst/internal/cachestore"
	"cachecatalyst/internal/core"
	"cachecatalyst/internal/delta"
	"cachecatalyst/internal/etag"
)

// TestRenderMatchesBothFrontEnds pins the render product to what
// catalyst.newRenderEntry and server.renderPage each produced for the same
// (pageURL, raw) before they were merged — the validators and reference
// lists below were printed by both at that commit and agreed — and to its
// definition in terms of the core stages.
func TestRenderMatchesBothFrontEnds(t *testing.T) {
	cases := []struct {
		pageURL, raw string
		tag          string
		refs         []core.Ref
	}{
		{
			"/shop/index.html?v=1",
			`<html><head><link rel="stylesheet" href="/css/site.css"><script src="app.js"></script></head><body><img src="/img/logo.png"><img src="https://cdn.example/x.png"></body></html>`,
			`"10f-7f99f845baa2be9b"`,
			[]core.Ref{{Key: "/css/site.css", CSS: true}, {Key: "/shop/app.js"}, {Key: "/img/logo.png"}, {Key: "https://cdn.example/x.png", Cross: true}},
		},
		{"/bare", `<p>no head <img src="a.png">`, `"7c-c6423a8b938b7e9c"`, []core.Ref{{Key: "/a.png"}}},
		{"/", "", `"60-8d6792bcd09d681b"`, nil},
	}
	for _, c := range cases {
		rd := newRender(c.pageURL, c.raw)
		if want := core.InjectRegistration(c.raw); string(rd.Body) != want {
			t.Errorf("%s: body = %q, want %q", c.pageURL, rd.Body, want)
		}
		if rd.Tag != etag.ForBytes(rd.Body) || rd.TagStr != c.tag {
			t.Errorf("%s: tag = %v / %s, want %s over the injected body", c.pageURL, rd.Tag, rd.TagStr, c.tag)
		}
		if !reflect.DeepEqual(rd.EtagHeader, []string{c.tag}) {
			t.Errorf("%s: Etag header = %v", c.pageURL, rd.EtagHeader)
		}
		if !reflect.DeepEqual(rd.ClenHeader, []string{strconv.Itoa(len(rd.Body))}) {
			t.Errorf("%s: Content-Length header = %v for %d bytes", c.pageURL, rd.ClenHeader, len(rd.Body))
		}
		if rd.DeltaKey != c.pageURL+"\x00"+c.tag {
			t.Errorf("%s: delta key = %q", c.pageURL, rd.DeltaKey)
		}
		if len(rd.Refs) != len(c.refs) || (len(c.refs) > 0 && !reflect.DeepEqual(rd.Refs, c.refs)) {
			t.Errorf("%s: refs = %+v, want %+v", c.pageURL, rd.Refs, c.refs)
		}
		if !rd.isRenderOf([]byte(c.raw)) || rd.isRenderOf(rd.Body) || rd.isRenderOf([]byte(c.raw+" ")) {
			t.Errorf("%s: isRenderOf must hold for the raw page and nothing else", c.pageURL)
		}
		if raw := rd.raw(); string(raw) != c.raw {
			t.Errorf("%s: raw() = %q, want the page %q", c.pageURL, raw, c.raw)
		}
		if got, min := renderEntrySize("k", &renderEntry{render: rd}), int64(len(rd.Body)); got <= min || got > min+1024 {
			t.Errorf("%s: size %d for a %d-byte body held once", c.pageURL, got, min)
		}
	}
}

// TestIsCSS holds the content-type test a resolve recurses on.
func TestIsCSS(t *testing.T) {
	if !isCSS("text/css") || isCSS("text/html") {
		t.Error("isCSS")
	}
}

func TestDeltaBaseAndPatch(t *testing.T) {
	// The base store a Middleware with Delta on keeps.
	baseStore := func() *cachestore.Store[[]byte] {
		return Middleware(http.NotFoundHandler(), MiddlewareOptions{Delta: true}).(*middleware).def.deltaBases
	}
	sized := baseStore()
	sized.Put("key", []byte("body"))
	if sized.MaxBytes() != bodyStoreBudget || sized.Bytes() != 7 {
		t.Fatalf("base store sizing: %d bytes, charge %d", sized.MaxBytes(), sized.Bytes())
	}
	bases := baseStore()
	filler := strings.Repeat("<p>lorem ipsum dolor sit amet</p>", 40)
	v1 := newRender("/p", "<html><head></head><body>"+filler+"<i>one</i></body></html>")
	v2 := newRender("/p", "<html><head></head><body>"+filler+"<i>two</i></body></html>")
	req := func(base string) *http.Request {
		r := httptest.NewRequest(http.MethodGet, "/p", nil)
		if base != "" {
			r.Header.Set(delta.RequestHeader, base)
		}
		return r
	}

	if base, from := deltaBase(nil, req(v1.TagStr), "/p", &v2); base != nil || from != "" {
		t.Fatal("nil store (delta off) selected a base")
	}
	// First serve of v1 retains it; serving it again writes nothing.
	deltaBase(bases, req(""), "/p", &v1)
	deltaBase(bases, req(""), "/p", &v1)
	if c := bases.Counters(); c.Puts != 1 {
		t.Fatalf("warm serve took the write path: %d puts", c.Puts)
	}

	// A client holding v1 asks for the page after it changed to v2.
	base, from := deltaBase(bases, req(v1.TagStr), "/p", &v2)
	if string(base) != string(v1.Body) || from != v1.TagStr {
		t.Fatalf("retained base not selected: from=%q", from)
	}
	p, ok := patch(base, v2.Body)
	if !ok || len(p) >= len(v2.Body) {
		t.Fatalf("patch of %d bytes not preferred over a %d-byte body", len(p), len(v2.Body))
	}
	if got, err := delta.Apply(base, p); err != nil || string(got) != string(v2.Body) {
		t.Fatalf("patch does not reproduce the entity: %v", err)
	}

	// Unknown base, the current entity as base, the same base for another
	// page: all fall back to the full body.
	for name, r := range map[string]*http.Request{
		"unknown": req(`"feedface"`), "current": req(v2.TagStr), "absent": req(""),
	} {
		if base, _ := deltaBase(bases, r, "/p", &v2); base != nil {
			t.Errorf("%s base selected a diff base", name)
		}
	}
	if base, _ := deltaBase(bases, req(v1.TagStr), "/other", &v2); base != nil {
		t.Error("base retained for /p selected for /other")
	}
	if _, ok := patch(nil, v2.Body); ok {
		t.Error("patch without a base")
	}
	// A patch that saves nothing is not served.
	if p, ok := patch([]byte("unrelated"), []byte("xy")); ok {
		t.Errorf("%d-byte patch preferred over a 2-byte body", len(p))
	}
}
