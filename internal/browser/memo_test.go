package browser

import (
	"testing"
	"time"

	"cachecatalyst/internal/netsim"
	"cachecatalyst/internal/server"
	"cachecatalyst/internal/vclock"
)

// TestResolvedReferencesKeyByDocument: one stylesheet body served at two
// paths is one parse but two resolves, since url(i.png) means a different
// image under each. A memo keyed by the body alone fetches the first
// sheet's image twice and the second's never.
func TestResolvedReferencesKeyByDocument(t *testing.T) {
	c := server.NewMemContent()
	c.SetBody("/index.html",
		`<html><head><link rel="stylesheet" href="/a/s.css"><link rel="stylesheet" href="/b/s.css"></head><body></body></html>`,
		server.CachePolicy{NoCache: true})
	week := server.CachePolicy{MaxAge: 7 * 24 * time.Hour, HasMaxAge: true}
	sheet := &server.Resource{Body: []byte(`.x { background: url(i.png); }`), Policy: week}
	c.Set("/a/s.css", sheet)
	c.Set("/b/s.css", sheet)
	c.SetBody("/a/i.png", "PNG-A", week)
	c.SetBody("/b/i.png", "PNG-B", week)
	clock := vclock.NewVirtual(vclock.Epoch)
	origins := OriginMap{"site.example": server.NewOrigin(server.New(c, server.Options{Clock: clock}))}

	memo := NewParseMemo()
	b := New(clock, Conventional, netsim.TransportOptions{}).WithParseMemo(memo)
	fetched := make(map[string]bool)
	b.OnFetch = func(ev FetchEvent) { fetched[ev.Path] = true }
	if _, err := b.Load(origins, cond40ms(), "site.example", "/index.html"); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{"/a/i.png", "/b/i.png"} {
		if !fetched[p] {
			t.Errorf("the load never fetched %s; fetched %v", p, fetched)
		}
	}
	parses := 0
	for id := range memo.byID {
		if id.kind == cssBody {
			parses++
		}
	}
	if parses != 1 || len(memo.resolved) != 3 {
		t.Errorf("memo holds %d stylesheet parses and %d resolves, want 1 and 3 (the page, the sheet at each path)", parses, len(memo.resolved))
	}
}
