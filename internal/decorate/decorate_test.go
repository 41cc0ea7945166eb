package decorate

import (
	"context"
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
	"cachecatalyst/internal/telemetry"
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
		rd := NewRender(c.pageURL, c.raw)
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
		if !rd.IsRenderOf([]byte(c.raw)) || rd.IsRenderOf(rd.Body) || rd.IsRenderOf([]byte(c.raw+" ")) {
			t.Errorf("%s: IsRenderOf must hold for the raw page and nothing else", c.pageURL)
		}
		if raw := rd.Raw(); string(raw) != c.raw {
			t.Errorf("%s: Raw() = %q, want the page %q", c.pageURL, raw, c.raw)
		}
		if got, min := RenderSize("k", &rd), int64(len(rd.Body)); got <= min || got > min+1024 {
			t.Errorf("%s: size %d for a %d-byte body held once", c.pageURL, got, min)
		}
	}
}

func TestAddPreloadLinks(t *testing.T) {
	h := http.Header{}
	if AddPreloadLinks(h, nil) || len(h) != 0 {
		t.Fatalf("no refs must add nothing: %v", h)
	}
	refs := []core.Ref{{Key: "/a.css", CSS: true}, {Key: "/b.png"}}
	for i := 0; i < 40; i++ {
		refs = append(refs, core.Ref{Key: "/img/" + strconv.Itoa(i)})
	}
	if !AddPreloadLinks(h, refs) {
		t.Fatal("refs present but no hint reported")
	}
	links := h.Values("Link")
	if len(links) != maxPreloadHints {
		t.Fatalf("%d links, want the cap %d", len(links), maxPreloadHints)
	}
	if links[0] != "</a.css>; rel=preload; as=style" || links[1] != "</b.png>; rel=preload; as=image" {
		t.Fatalf("link wire form: %q, %q", links[0], links[1])
	}
}

func TestDeltaBaseAndPatch(t *testing.T) {
	opts := BaseStoreOptions()
	if opts.MaxBytes != BodyStoreBudget || opts.SizeOf("key", []byte("body")) != 7 {
		t.Fatalf("base store sizing: %d bytes, charge %d", opts.MaxBytes, opts.SizeOf("key", []byte("body")))
	}
	bases := cachestore.New(opts)
	filler := strings.Repeat("<p>lorem ipsum dolor sit amet</p>", 40)
	v1 := NewRender("/p", "<html><head></head><body>"+filler+"<i>one</i></body></html>")
	v2 := NewRender("/p", "<html><head></head><body>"+filler+"<i>two</i></body></html>")
	req := func(base string) *http.Request {
		r := httptest.NewRequest(http.MethodGet, "/p", nil)
		if base != "" {
			r.Header.Set(delta.RequestHeader, base)
		}
		return r
	}

	if base, from := DeltaBase(nil, req(v1.TagStr), "/p", &v2); base != nil || from != "" {
		t.Fatal("nil store (delta off) selected a base")
	}
	// First serve of v1 retains it; serving it again writes nothing.
	DeltaBase(bases, req(""), "/p", &v1)
	DeltaBase(bases, req(""), "/p", &v1)
	if c := bases.Counters(); c.Puts != 1 {
		t.Fatalf("warm serve took the write path: %d puts", c.Puts)
	}

	// A client holding v1 asks for the page after it changed to v2.
	base, from := DeltaBase(bases, req(v1.TagStr), "/p", &v2)
	if string(base) != string(v1.Body) || from != v1.TagStr {
		t.Fatalf("retained base not selected: from=%q", from)
	}
	patch, ok := Patch(base, v2.Body)
	if !ok || len(patch) >= len(v2.Body) {
		t.Fatalf("patch of %d bytes not preferred over a %d-byte body", len(patch), len(v2.Body))
	}
	if got, err := delta.Apply(base, patch); err != nil || string(got) != string(v2.Body) {
		t.Fatalf("patch does not reproduce the entity: %v", err)
	}

	// Unknown base, the current entity as base, the same base for another
	// page: all fall back to the full body.
	for name, r := range map[string]*http.Request{
		"unknown": req(`"feedface"`), "current": req(v2.TagStr), "absent": req(""),
	} {
		if base, _ := DeltaBase(bases, r, "/p", &v2); base != nil {
			t.Errorf("%s base selected a diff base", name)
		}
	}
	if base, _ := DeltaBase(bases, req(v1.TagStr), "/other", &v2); base != nil {
		t.Error("base retained for /p selected for /other")
	}
	if _, ok := Patch(nil, v2.Body); ok {
		t.Error("patch without a base")
	}
	// A patch that saves nothing is not served.
	if patch, ok := Patch([]byte("unrelated"), []byte("xy")); ok {
		t.Errorf("%d-byte patch preferred over a 2-byte body", len(patch))
	}
}

func TestServeWorkerScript(t *testing.T) {
	serve := func(method, inm string) (*httptest.ResponseRecorder, int, int) {
		r := httptest.NewRequest(method, core.ServiceWorkerPath, nil)
		if inm != "" {
			r.Header.Set("If-None-Match", inm)
		}
		rec := httptest.NewRecorder()
		status, n := ServeWorkerScript(rec, r)
		return rec, status, n
	}
	rec, status, n := serve(http.MethodGet, "")
	if status != 200 || rec.Code != 200 || rec.Body.String() != core.ServiceWorkerScript || n != len(core.ServiceWorkerScript) {
		t.Fatalf("GET: status %d/%d, %d bytes", status, rec.Code, n)
	}
	tag := rec.Header().Get("Etag")
	if tag != etag.ForBytes([]byte(core.ServiceWorkerScript)).String() ||
		rec.Header().Get("Cache-Control") != "no-cache" ||
		!strings.HasPrefix(rec.Header().Get("Content-Type"), "text/javascript") {
		t.Fatalf("GET headers: %v", rec.Header())
	}
	if rec, status, n := serve(http.MethodGet, tag); status != 304 || rec.Code != 304 || n != 0 || rec.Body.Len() != 0 || rec.Header().Get("Etag") != tag {
		t.Fatalf("revalidation: status %d/%d, %d bytes", status, rec.Code, rec.Body.Len())
	}
	if rec, status, n := serve(http.MethodHead, ""); status != 200 || n != 0 || rec.Body.Len() != 0 || rec.Header().Get("Etag") != tag {
		t.Fatalf("HEAD: status %d, %d bytes", status, rec.Body.Len())
	}
	if _, status, _ := serve(http.MethodGet, `"stale"`); status != 200 {
		t.Fatalf("mismatched validator: status %d", status)
	}
}

func TestWriteEntity(t *testing.T) {
	body := []byte("hello")
	for _, c := range []struct {
		method string
		clen   []string
		n      int
	}{
		{http.MethodGet, nil, 5},
		{http.MethodGet, []string{"5"}, 5},
		{http.MethodHead, nil, 0},
	} {
		rec := httptest.NewRecorder()
		n := WriteEntity(rec, httptest.NewRequest(c.method, "/", nil), body, c.clen)
		if n != c.n || rec.Code != 200 || rec.Body.Len() != c.n || rec.Header().Get("Content-Length") != "5" {
			t.Errorf("%s clen=%v: wrote %d, status %d, Content-Length %q", c.method, c.clen, n, rec.Code, rec.Header().Get("Content-Length"))
		}
	}
}

func TestPageURLAndContentTypes(t *testing.T) {
	if got := PageURL(httptest.NewRequest("GET", "/a/b?x=1&y=2", nil)); got != "/a/b?x=1&y=2" {
		t.Errorf("PageURL with query = %q", got)
	}
	if got := PageURL(httptest.NewRequest("GET", "/a/b", nil)); got != "/a/b" {
		t.Errorf("PageURL = %q", got)
	}
	if !IsHTML("text/html; charset=utf-8") || IsHTML("text/plain") || IsHTML("") {
		t.Error("IsHTML")
	}
	if !IsCSS("text/css") || IsCSS("text/html") {
		t.Error("IsCSS")
	}
}

func TestDecideMirrorsOnlyWhenAsked(t *testing.T) {
	ctx, trace := telemetry.StartTrace(context.Background(), "req")
	h := http.Header{}
	Decide(ctx, h, false, "map-built", "/p")
	if len(h) != 0 {
		t.Fatalf("decision mirrored without ServerTiming: %v", h)
	}
	h.Set(telemetry.ServerTimingHeader, "origin")
	Decide(ctx, h, true, "etag-match", "/p")
	if got := trace.Decisions(); !reflect.DeepEqual(got, []string{"map-built", "etag-match"}) {
		t.Fatalf("trace decisions = %v", got)
	}
	if got := telemetry.ParseServerTiming(h.Get(telemetry.ServerTimingHeader)); !reflect.DeepEqual(got, []string{"origin", "etag-match"}) {
		t.Fatalf("Server-Timing = %v", got)
	}
}
