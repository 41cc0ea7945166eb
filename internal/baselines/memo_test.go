package baselines

import (
	"bytes"
	"net/http"
	"testing"
	"time"

	"cachecatalyst/catalyst"
	"cachecatalyst/internal/httpcache"
	"cachecatalyst/internal/netsim"
	"cachecatalyst/internal/server"
	"cachecatalyst/internal/vclock"
)

// TestBundleMemoKeysByParts: two worlds share one memo and one page body,
// and one stylesheet differs between them in its bytes only — same path,
// status, type, ETag, Cache-Control and length, as a body a memo must tell
// apart by identity. Each world's navigation must carry its own
// stylesheet's bytes, and a world navigating again must get the bundle the
// memo assembled for it, not a new one.
func TestBundleMemoKeysByParts(t *testing.T) {
	site := server.NewMemContent()
	site.SetBody("/index.html", `<html><head><link rel="stylesheet" href="/a.css"></head><body></body></html>`,
		server.CachePolicy{NoCache: true})
	site.SetBody("/a.css", ".a { color: red; }", server.CachePolicy{MaxAge: time.Hour, HasMaxAge: true})
	live := server.NewOrigin(catalyst.Middleware(server.New(site, server.Options{Clock: vclock.NewVirtual(vclock.Epoch)}), catalyst.MiddlewareOptions{}))
	get := func(p string) *httpcache.Response {
		return live.RoundTrip(&netsim.Request{Method: "GET", Path: p, Header: make(http.Header)})
	}
	page, css := get("/index.html"), get("/a.css")
	changed := *css
	changed.Body = bytes.ToUpper(css.Body)

	for _, policy := range []Policy{PushAll, RDR} {
		t.Run(policy.String(), func(t *testing.T) {
			memo := NewBundleMemo()
			worlds := []netsim.Origin{
				NewBundleOrigin(recordedOrigin{"/index.html": page, "/a.css": css}, policy, memo),
				NewBundleOrigin(recordedOrigin{"/index.html": page, "/a.css": &changed}, policy, memo),
			}
			var first []byte // the first world's bundle body
			for i, want := range []*httpcache.Response{css, &changed, css} {
				resp := navigate(t, worlds[i%2])
				_, pushed, ok := split(resp)
				if !ok || pushed["/a.css"] == nil {
					t.Fatalf("navigation %d: no bundle carrying /a.css", i)
				}
				if got := pushed["/a.css"].Body; !bytes.Equal(got, want.Body) {
					t.Errorf("navigation %d bundled /a.css as %q, want %q", i, got, want.Body)
				}
				if i == 0 {
					first = resp.Body
				} else if i == 2 && &resp.Body[0] != &first[0] {
					t.Error("the first world's second navigation assembled its bundle again; want the memo's")
				}
			}
		})
	}
}
