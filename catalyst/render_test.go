package catalyst

import (
	"reflect"
	"strconv"
	"testing"

	"cachecatalyst/internal/core"
	"cachecatalyst/internal/etag"
)

// renderFixtures are pages with the validator and references their render
// carries, and the most allocations one cold render of the page may make
// (TestColdRenderAllocations).
var renderFixtures = []struct {
	pageURL, raw string
	tag          string
	refs         []core.Ref
	allocs       float64
}{
	{
		"/shop/index.html?v=1",
		`<html><head><link rel="stylesheet" href="/css/site.css"><script src="app.js"></script></head><body><img src="/img/logo.png"><img src="https://cdn.example/x.png"></body></html>`,
		`"10f-7f99f845baa2be9b"`,
		[]core.Ref{{Key: "/css/site.css", CSS: true}, {Key: "/shop/app.js"}, {Key: "/img/logo.png"}, {Key: "https://cdn.example/x.png", Cross: true}},
		31,
	},
	{"/bare", `<p>no head <img src="a.png">`, `"7c-c6423a8b938b7e9c"`, []core.Ref{{Key: "/a.png"}}, 16},
	{"/", "", `"60-8d6792bcd09d681b"`, nil, 9},
}

// TestRenderMatchesBothFrontEnds pins the render product to what
// catalyst.newRenderEntry and server.renderPage each produced for the same
// (pageURL, raw) before they were merged — the validators and reference
// lists of renderFixtures were printed by both at that commit and agreed —
// and to its definition in terms of the core stages.
func TestRenderMatchesBothFrontEnds(t *testing.T) {
	for _, c := range renderFixtures {
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
