package server

import (
	"strings"
	"testing"

	"cachecatalyst/internal/vclock"
)

func TestEarlyHintsEmitsPreloadLinks(t *testing.T) {
	s := New(buildSite(), Options{EarlyHints: true, Clock: vclock.NewVirtual(vclock.Epoch)})
	rec := get(t, s, "/index.html", nil)
	if rec.Code != 200 {
		t.Fatalf("status = %d", rec.Code)
	}
	links := rec.Header().Values("Link")
	if len(links) == 0 {
		t.Fatal("no Link preload headers emitted")
	}
	want := map[string]bool{"/a.css": false, "/b.js": false, "/d.jpg": false}
	for _, l := range links {
		if !strings.Contains(l, "rel=preload") {
			t.Fatalf("Link %q missing rel=preload", l)
		}
		for k := range want {
			if strings.Contains(l, "<"+k+">") {
				want[k] = true
			}
		}
	}
	for k, seen := range want {
		if !seen {
			t.Errorf("no preload hint for %s in %v", k, links)
		}
	}
	if s.Metrics.HintsSent.Load() != 1 {
		t.Errorf("HintsSent = %d, want 1", s.Metrics.HintsSent.Load())
	}
	// Non-HTML responses carry no hints.
	if got := get(t, s, "/a.css", nil).Header().Values("Link"); len(got) != 0 {
		t.Errorf("stylesheet response carried Link headers: %v", got)
	}
}

func TestEarlyHintsOn304(t *testing.T) {
	s := New(buildSite(), Options{EarlyHints: true, Clock: vclock.NewVirtual(vclock.Epoch)})
	tag := get(t, s, "/index.html", nil).Header().Get("Etag")
	rec := get(t, s, "/index.html", map[string]string{"If-None-Match": tag})
	if rec.Code != 304 {
		t.Fatalf("status = %d, want 304", rec.Code)
	}
	// Hints are set before the conditional check: even a 304 advertises
	// the preload set, letting the client warm subresources.
	if len(rec.Header().Values("Link")) == 0 {
		t.Error("304 carried no Link preload headers")
	}
}
