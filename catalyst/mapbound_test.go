package catalyst

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"cachecatalyst/internal/core"
	"cachecatalyst/internal/server"
)

// TestOversizedMapIsBounded serves a page whose full map encodes past
// core.MaxEncodedMapBytes, the most core.DecodeMap accepts, through both
// front ends. Each must ship an X-Etag-Config a client can decode, holding
// only entries of the full map: the shared bound (encodeMap) drops
// the rest, where an unbounded header would be discarded whole.
func TestOversizedMapIsBounded(t *testing.T) {
	content := server.NewMemContent()
	full := ETagMap{}
	var page strings.Builder
	page.WriteString("<html><body>")
	pad := strings.Repeat("x", 200)
	for i := 0; i < 6000; i++ {
		p := fmt.Sprintf("/assets/%s-%04d.png", pad, i)
		content.SetBody(p, p, server.CachePolicy{})
		r, _ := content.Get(p)
		full[p] = r.ETag
		fmt.Fprintf(&page, `<img src="%s">`, p)
	}
	page.WriteString("</body></html>")
	content.SetBody("/index.html", page.String(), server.CachePolicy{})
	if n := len(full.Encode()); n <= core.MaxEncodedMapBytes {
		t.Fatalf("the full map encodes to %d bytes, not past the %d-byte bound", n, core.MaxEncodedMapBytes)
	}

	// In front of a *server.Server the middleware resolves from Content;
	// in front of any other handler, through probes.
	srv := server.New(content, server.Options{})
	mw := Middleware(http.HandlerFunc(srv.ServeHTTP), MiddlewareOptions{})
	for _, fe := range []struct {
		name string
		h    http.Handler
	}{
		{"server", Middleware(srv, MiddlewareOptions{})},
		{"middleware", mw},
	} {
		t.Run(fe.name, func(t *testing.T) {
			rec := httptest.NewRecorder()
			fe.h.ServeHTTP(rec, httptest.NewRequest("GET", "/index.html", nil))
			hdr := rec.Header().Get(HeaderName)
			m, err := DecodeMap(hdr)
			if err != nil {
				t.Fatalf("a client discards the %d-byte X-Etag-Config: %v", len(hdr), err)
			}
			if len(m) == 0 || len(m) == len(full) {
				t.Fatalf("shipped %d of the full map's %d entries, want some but not all", len(m), len(full))
			}
			t.Logf("shipped %d of %d entries in %d bytes", len(m), len(full), len(hdr))
			for p, tag := range m {
				if want, ok := full[p]; !ok || tag != want {
					t.Fatalf("shipped %q → %s, the full map has %s (present %v)", p, tag, want, ok)
				}
			}
		})
	}
	if got, want := metricsOf(mw).MapEntriesDropped.Load(), int64(len(full)); got <= 0 || got >= want {
		t.Errorf("MapEntriesDropped = %d, want between 0 and %d exclusive", got, want)
	}
}

// TestTrimmedExtrasAreCounted: a recording session's extras ride on top of
// the page's map for its own response, and when they push it past the bound,
// the entries the bound cuts are counted in MapEntriesDropped like those of
// any other map.
func TestTrimmedExtrasAreCounted(t *testing.T) {
	content := server.NewMemContent()
	content.SetBody("/index.html", `<html><body><img src="/a.png"></body></html>`, server.CachePolicy{})
	content.SetBody("/a.png", "a", server.CachePolicy{})
	a, _ := content.Get("/a.png")
	srv := server.New(content, server.Options{Record: true})
	const extras = 20
	for i := 0; i < extras; i++ {
		p := fmt.Sprintf("/lazy/%02d.js", i)
		content.SetBody(p, p, server.CachePolicy{})
		srv.Recorder().RecordFetch("sess", "http://site.example/index.html", p)
	}
	// Room for the page's own map and about three extras.
	bound := len(ETagMap{"/a.png": a.ETag}.Encode()) + 3*40
	h := tuned(srv, MiddlewareOptions{}, withMaxMapBytes(bound))

	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/index.html", nil))
	if got := metricsOf(h).MapEntriesDropped.Load(); got != 0 {
		t.Fatalf("the page's own map fits the bound, yet %d entries were dropped", got)
	}
	req := httptest.NewRequest("GET", "/index.html", nil)
	req.AddCookie(&http.Cookie{Name: server.SessionCookie, Value: "sess"})
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	hdr := rec.Header().Get(HeaderName)
	m, err := DecodeMap(hdr)
	if err != nil || len(hdr) > bound {
		t.Fatalf("%d-byte map past the %d-byte bound, or undecodable: %v", len(hdr), bound, err)
	}
	if len(m) <= 1 || len(m) >= 1+extras {
		t.Fatalf("shipped %d of %d entries, want the extras trimmed, not dropped whole", len(m), 1+extras)
	}
	if got, want := metricsOf(h).MapEntriesDropped.Load(), int64(1+extras-len(m)); got != want {
		t.Errorf("MapEntriesDropped = %d, want the %d entries the bound cut from the session's map", got, want)
	}
}
