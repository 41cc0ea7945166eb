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
// only entries of the full map: the shared bound (decorate.EncodeMap) drops
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

	mw := Middleware(server.New(content, server.Options{}), MiddlewareOptions{})
	for _, fe := range []struct {
		name string
		h    http.Handler
	}{
		{"server", server.New(content, server.Options{Catalyst: true})},
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
