package browser

import (
	nethttp "net/http"
	"net/url"
	"testing"
	"time"

	"cachecatalyst/internal/core"
	"cachecatalyst/internal/etag"
	"cachecatalyst/internal/netsim"
	"cachecatalyst/internal/server"
	"cachecatalyst/internal/vclock"
)

// xoWorld builds a page with one cross-origin image, a catalyst server with
// the §6 cross-origin resolver, and a CDN origin.
func xoWorld() (*world, *server.MemContent) {
	w := &world{clock: vclock.NewVirtual(vclock.Epoch)}
	w.content = server.NewMemContent()
	w.content.SetBody("/index.html",
		`<html><head><link rel="stylesheet" href="/a.css"></head><body><img src="https://cdn.example/logo.png"></body></html>`,
		server.CachePolicy{NoCache: true})
	w.content.SetBody("/a.css", "body{}", server.CachePolicy{NoCache: true})

	cdn := server.NewMemContent()
	cdn.SetBody("/logo.png", "CDN-PNG-V1", server.CachePolicy{NoCache: true})

	opts := server.Options{Clock: w.clock}
	opts.CrossOriginETag = func(absURL string) (etag.Tag, bool) {
		u, err := url.Parse(absURL)
		if err != nil || u.Host != "cdn.example" {
			return etag.Tag{}, false
		}
		res, ok := cdn.Get(u.EscapedPath())
		if !ok {
			return etag.Tag{}, false
		}
		return res.ETag, true
	}
	w.srv = server.New(w.content, opts)
	cdnSrv := server.New(cdn, server.Options{Clock: w.clock})
	w.origins = OriginMap{
		"site.example": server.NewOrigin(front(w.srv, true)),
		"cdn.example":  server.NewOrigin(cdnSrv),
	}
	return w, cdn
}

func TestCatalystCrossOriginServedFromSW(t *testing.T) {
	w, _ := xoWorld()
	b := New(w.clock, Catalyst, netsim.TransportOptions{})
	cold := mustLoad(t, b, w)
	if cold.Errors != 0 || cold.Resources != 3 {
		t.Fatalf("cold: %+v", cold)
	}
	// The SW cache must hold the CDN resource under its absolute URL.
	worker, ok := b.Workers().Lookup("site.example")
	if !ok {
		t.Fatal("no worker")
	}
	if _, ok := worker.Cache().Match("https://cdn.example/logo.png"); !ok {
		t.Fatal("cross-origin resource not in SW cache")
	}
	// The map must cover it.
	if _, ok := worker.ETagMap().Get("https://cdn.example/logo.png"); !ok {
		t.Fatalf("map lacks cross-origin entry: %v", worker.ETagMap())
	}

	w.clock.Advance(time.Hour)
	warm := mustLoad(t, b, w)
	// Navigation only: both a.css and the CDN image served by the SW.
	if warm.NetworkRequests != 1 {
		t.Fatalf("warm requests = %d, want 1 (%+v)", warm.NetworkRequests, warm)
	}
	if warm.LocalHits != 2 {
		t.Fatalf("warm local hits = %d, want 2 (%+v)", warm.LocalHits, warm)
	}
}

func TestCatalystCrossOriginRefetchedOnChange(t *testing.T) {
	w, cdn := xoWorld()
	b := New(w.clock, Catalyst, netsim.TransportOptions{})
	mustLoad(t, b, w)

	w.clock.Advance(time.Hour)
	cdn.SetBody("/logo.png", "CDN-PNG-V2-NEW", server.CachePolicy{NoCache: true})
	warm := mustLoad(t, b, w)
	if warm.NetworkRequests != 2 { // nav + changed CDN image
		t.Fatalf("warm requests = %d, want 2 (%+v)", warm.NetworkRequests, warm)
	}
	worker, _ := b.Workers().Lookup("site.example")
	stored, ok := worker.Cache().Match("https://cdn.example/logo.png")
	if !ok || string(stored.Body) != "CDN-PNG-V2-NEW" {
		t.Fatal("changed cross-origin resource not re-cached")
	}
}

func TestCrossOriginMapHeaderVisible(t *testing.T) {
	w, _ := xoWorld()
	origin := w.origins["site.example"]
	resp := origin.RoundTrip(newReq("/index.html"))
	m, err := core.DecodeMap(resp.Header.Get(core.HeaderName))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := m["https://cdn.example/logo.png"]; !ok {
		t.Fatalf("map = %v", m)
	}
	if _, ok := m["/a.css"]; !ok {
		t.Fatalf("same-origin entry lost: %v", m)
	}
}

func newReq(path string) *netsim.Request {
	return &netsim.Request{Method: "GET", Path: path, Header: make(nethttp.Header)}
}
