package catalyst

import (
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"

	"cachecatalyst/internal/server"
)

// TestServerRenderStoreKeysByURL serves successive versions of one page
// from a server's Content: the store keeps one entry for its URL, the
// render of the version served now, and its accounting stays exact.
func TestServerRenderStoreKeysByURL(t *testing.T) {
	site := server.NewMemContent()
	site.SetBody("/d.jpg", "JPEGDATA", server.CachePolicy{})
	h := Middleware(server.New(site, server.Options{}), MiddlewareOptions{})
	renders := h.(*middleware).def.renders
	const versions = 8
	for v := 0; v < versions; v++ {
		title := fmt.Sprintf("<title>v%d</title>", v)
		site.SetBody("/index.html", "<html><head>"+title+`</head><body><img src="/d.jpg"></body></html>`, server.CachePolicy{NoCache: true})
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/index.html", nil))
		if !strings.Contains(rec.Body.String(), title) {
			t.Fatalf("version %d: stale body served: %q", v, rec.Body.String())
		}
	}
	if keys := renders.Keys(); len(keys) != 1 || keys[0] != "/index.html" {
		t.Fatalf("%d versions of one page left %q in the render store, want one entry for it", versions, keys)
	}
	if err := renders.Audit(); err != nil {
		t.Fatal(err)
	}
	if c := renders.Counters(); c.Loads != versions {
		t.Fatalf("%d renders built for %d versions", c.Loads, versions)
	}
}
