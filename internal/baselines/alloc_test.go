package baselines

import (
	"fmt"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"

	"cachecatalyst/catalyst"
	"cachecatalyst/internal/httpcache"
	"cachecatalyst/internal/netsim"
	"cachecatalyst/internal/server"
	"cachecatalyst/internal/vclock"
)

// recordedOrigin answers each path with the response it recorded for it,
// so a round trip through it allocates nothing.
type recordedOrigin map[string]*httpcache.Response

func (o recordedOrigin) RoundTrip(req *netsim.Request) *httpcache.Response { return o[req.Path] }

// TestBundleAllocatesItsBodyOnce: a bundled navigation allocates the bundle
// body once, at its exact size. Over a fixed page with 16 stylesheets of
// 16 KiB (a 257 KiB bundle), what one navigation allocates may exceed the
// body plus the manifest by a small constant, not by the copies a growing
// buffer leaves behind (those came to about four times the body). The
// constant covers rounding the body up to whole 8 KiB pages, decoding the
// page's ETag map into the part list (≈ 6 KiB), marshalling the manifest
// and copying it into the header, and the parts' requests.
func TestBundleAllocatesItsBodyOnce(t *testing.T) {
	const slack = 32 << 10
	site := server.NewMemContent()
	var page strings.Builder
	page.WriteString("<html><head>")
	for i := 0; i < 16; i++ {
		p := fmt.Sprintf("/s%02d.css", i)
		fmt.Fprintf(&page, `<link rel="stylesheet" href="%s">`, p)
		site.SetBody(p, strings.Repeat("x", 16<<10), server.CachePolicy{MaxAge: time.Hour, HasMaxAge: true})
	}
	page.WriteString("</head><body></body></html>")
	site.SetBody("/index.html", page.String(), server.CachePolicy{NoCache: true})

	live := server.NewOrigin(catalyst.Middleware(server.New(site, server.Options{Clock: vclock.NewVirtual(vclock.Epoch)}), catalyst.MiddlewareOptions{}))
	rec := recordedOrigin{}
	for _, p := range append([]string{"/index.html"}, site.Paths()...) {
		rec[p] = live.RoundTrip(&netsim.Request{Method: "GET", Path: p, Header: make(http.Header)})
	}
	origin := NewBundleOrigin(rec, PushAll, nil)
	var resp *httpcache.Response
	nav := func() {
		resp = origin.RoundTrip(&netsim.Request{Method: "GET", Path: "/index.html", Header: make(http.Header)})
	}
	nav()
	if _, pushed, ok := split(resp); !ok || len(pushed) != 16 {
		t.Fatalf("bundle of %d parts, want 16", len(pushed))
	}

	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs := testing.AllocsPerRun(runs, nav) // runs nav runs+1 times
	runtime.ReadMemStats(&after)
	perNav := int(after.TotalAlloc-before.TotalAlloc) / (runs + 1)
	body, manifest := len(resp.Body), len(resp.Header.Get(BundleHeader))
	t.Logf("one navigation: %d allocations, %d B; body %d B, manifest %d B", int(allocs), perNav, body, manifest)
	if perNav > body+manifest+slack {
		t.Errorf("one bundled navigation allocates %d B, want ≤ body %d + manifest %d + %d", perNav, body, manifest, slack)
	}
}
