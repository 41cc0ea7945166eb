package baselines

import (
	"net/http"
	"testing"
	"time"

	"cachecatalyst/catalyst"
	"cachecatalyst/internal/httpcache"
	"cachecatalyst/internal/netsim"
	"cachecatalyst/internal/server"
	"cachecatalyst/internal/vclock"
)

// chainSite mirrors the Figure 1 page: a.css and b.js are static; b.js
// fetches c.js which fetches d.jpg (JS-discovered).
func chainSite() *server.MemContent {
	c := server.NewMemContent()
	c.SetBody("/index.html",
		`<html><head><link rel="stylesheet" href="/a.css"><script src="/b.js"></script></head><body></body></html>`,
		server.CachePolicy{NoCache: true})
	c.SetBody("/a.css", `.x { background: url(/bg.png); }`, server.CachePolicy{MaxAge: time.Hour, HasMaxAge: true})
	c.SetBody("/bg.png", "PNG", server.CachePolicy{})
	c.SetBody("/b.js", "//@fetch /c.js\n", server.CachePolicy{NoCache: true})
	c.SetBody("/c.js", "//@fetch /d.jpg\n", server.CachePolicy{NoCache: true})
	c.SetBody("/d.jpg", "JPEG", server.CachePolicy{NoCache: true})
	return c
}

func newBundleWorld(t *testing.T, policy Policy) (netsim.Origin, *server.Server) {
	t.Helper()
	srv := server.New(chainSite(), server.Options{Clock: vclock.NewVirtual(vclock.Epoch)})
	return NewBundleOrigin(server.NewOrigin(catalyst.Middleware(srv, catalyst.MiddlewareOptions{})), policy, nil), srv
}

func navigate(t *testing.T, origin netsim.Origin) *httpcache.Response {
	t.Helper()
	return origin.RoundTrip(&netsim.Request{Method: "GET", Path: "/index.html", Header: make(http.Header)})
}

func TestPushAllBundlesStaticResources(t *testing.T) {
	origin, _ := newBundleWorld(t, PushAll)
	resp := navigate(t, origin)
	page, pushed, ok := split(resp)
	if !ok {
		t.Fatal("no bundle")
	}
	if page.StatusCode != 200 || len(page.Body) == 0 {
		t.Fatalf("page = %+v", page)
	}
	// Static closure: a.css, bg.png (via CSS), b.js. Not c.js/d.jpg
	// (JS-discovered — a push server cannot know about them).
	for _, p := range []string{"/a.css", "/bg.png", "/b.js"} {
		if _, ok := pushed[p]; !ok {
			t.Errorf("missing pushed %q", p)
		}
	}
	if _, ok := pushed["/c.js"]; ok {
		t.Error("push-all bundled a JS-discovered resource")
	}
	if len(pushed) != 3 {
		t.Fatalf("pushed %d resources", len(pushed))
	}
}

func TestRDRBundlesFullClosure(t *testing.T) {
	origin, _ := newBundleWorld(t, RDR)
	_, pushed, ok := split(navigate(t, origin))
	if !ok {
		t.Fatal("no bundle")
	}
	for _, p := range []string{"/a.css", "/bg.png", "/b.js", "/c.js", "/d.jpg"} {
		if _, ok := pushed[p]; !ok {
			t.Errorf("missing %q in RDR bundle", p)
		}
	}
	if len(pushed) != 5 {
		t.Fatalf("pushed %d resources", len(pushed))
	}
}

func TestBundleBodiesIntact(t *testing.T) {
	origin, _ := newBundleWorld(t, RDR)
	_, pushed, _ := split(navigate(t, origin))
	if string(pushed["/d.jpg"].Body) != "JPEG" {
		t.Fatalf("d.jpg body = %q", pushed["/d.jpg"].Body)
	}
	if pushed["/a.css"].Header.Get("Content-Type") != "text/css; charset=utf-8" {
		t.Fatalf("a.css content type = %q", pushed["/a.css"].Header.Get("Content-Type"))
	}
	if pushed["/a.css"].Header.Get("Etag") == "" {
		t.Fatal("pushed resource lost its ETag")
	}
	if pushed["/a.css"].Header.Get("Cache-Control") != "max-age=3600" {
		t.Fatalf("a.css cache-control = %q", pushed["/a.css"].Header.Get("Cache-Control"))
	}
}

func TestNonHTMLPassesThrough(t *testing.T) {
	origin, _ := newBundleWorld(t, PushAll)
	resp := origin.RoundTrip(&netsim.Request{Method: "GET", Path: "/a.css", Header: make(http.Header)})
	if resp.Header.Get(BundleHeader) != "" {
		t.Fatal("stylesheet got bundled")
	}
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
}

func TestNotFoundPassesThrough(t *testing.T) {
	origin, _ := newBundleWorld(t, PushAll)
	resp := origin.RoundTrip(&netsim.Request{Method: "GET", Path: "/nope.html", Header: make(http.Header)})
	if resp.StatusCode != 404 || resp.Header.Get(BundleHeader) != "" {
		t.Fatalf("404 mishandled: %d", resp.StatusCode)
	}
}

func TestSplitRejectsCorruptManifest(t *testing.T) {
	h := make(http.Header)
	h.Set(BundleHeader, "{broken")
	if _, _, ok := split(&httpcache.Response{StatusCode: 200, Header: h, Body: []byte("x")}); ok {
		t.Fatal("accepted corrupt manifest")
	}
	h2 := make(http.Header)
	h2.Set(BundleHeader, `[{"p":"/","s":200,"ct":"text/html","n":999}]`)
	if _, _, ok := split(&httpcache.Response{StatusCode: 200, Header: h2, Body: []byte("short")}); ok {
		t.Fatal("accepted length mismatch")
	}
	if _, _, ok := split(&httpcache.Response{StatusCode: 200, Header: make(http.Header), Body: []byte("x")}); ok {
		t.Fatal("accepted bundle-less response")
	}
}

func TestBundleByteSizeCharged(t *testing.T) {
	// The bundled navigation must be larger on the wire than the plain one.
	plainSrv := server.New(chainSite(), server.Options{Clock: vclock.NewVirtual(vclock.Epoch)})
	plain := server.NewOrigin(catalyst.Middleware(plainSrv, catalyst.MiddlewareOptions{}))
	plainResp := navigate(t, plain)
	bundled, _ := newBundleWorld(t, RDR)
	bundledResp := navigate(t, bundled)
	if netsim.ResponseWireSize(bundledResp) <= netsim.ResponseWireSize(plainResp) {
		t.Fatal("bundle added no wire bytes")
	}
}

func TestPolicyString(t *testing.T) {
	if PushAll.String() != "push-all" || RDR.String() != "rdr" {
		t.Fatal("policy strings wrong")
	}
}

// split is Split of resp with its manifest decoded.
func split(resp *httpcache.Response) (*httpcache.Response, map[string]*httpcache.Response, bool) {
	return Split(resp, DecodeManifest(resp.Header.Get(BundleHeader)))
}
