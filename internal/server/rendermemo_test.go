package server

import (
	"testing"
	"time"

	"cachecatalyst/internal/core"
)

// TestRenderMemoKeysByPageURL: one Resource served at two page URLs is two
// renders, since its relative references resolve against each URL, so the
// two pages ship two different maps. A memo keyed by the Resource alone
// hands the second URL the first one's references. Servers sharing a memo,
// as a site's worlds do, share the render itself.
func TestRenderMemoKeysByPageURL(t *testing.T) {
	c := NewMemContent()
	page := &Resource{Body: []byte(`<html><head><link rel="stylesheet" href="s.css"></head><body><img src="i.png"></body></html>`)}
	c.Set("/a/index.html", page)
	c.Set("/b/index.html", page)
	long := CachePolicy{MaxAge: time.Hour, HasMaxAge: true}
	for _, p := range []string{"/a/s.css", "/b/s.css", "/a/i.png", "/b/i.png"} {
		c.SetBody(p, p, long)
	}
	memo := NewRenderMemo()
	s := New(c, Options{Catalyst: true}).WithRenderMemo(memo)
	for _, dir := range []string{"/a/", "/b/"} {
		m, err := core.DecodeMap(get(t, s, dir+"index.html", nil).Header().Get(core.HeaderName))
		if err != nil {
			t.Fatal(err)
		}
		if len(m) != 2 {
			t.Errorf("%sindex.html ships a map of %d entries, want 2: %v", dir, len(m), m)
		}
		for _, p := range []string{dir + "s.css", dir + "i.png"} {
			if _, ok := m[p]; !ok {
				t.Errorf("%sindex.html's map lacks %s: %v", dir, p, m)
			}
		}
	}
	if len(memo.renders) != 2 {
		t.Errorf("the memo holds %d renders of one Resource at two URLs, want 2", len(memo.renders))
	}

	other := New(c, Options{Catalyst: true}).WithRenderMemo(memo)
	mine, theirs := s.renderPage("/a/index.html", page), other.renderPage("/a/index.html", page)
	if &mine.Body[0] != &theirs.Body[0] {
		t.Error("two servers sharing a memo rendered the same page version twice")
	}
	if mine == theirs {
		t.Error("two servers share a pageRender; the map slot must stay per server")
	}
}
