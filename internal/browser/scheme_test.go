package browser

import (
	"fmt"
	nethttp "net/http"
	"strings"
	"testing"
	"time"

	"cachecatalyst/catalyst"
	"cachecatalyst/internal/delta"
	"cachecatalyst/internal/httpcache"
	"cachecatalyst/internal/netsim"
	"cachecatalyst/internal/server"
	"cachecatalyst/internal/vclock"
)

// hintsWorld is a conventional server that emits preload Link headers for
// the page's subresources (consumed as 103 Early Hints by the simulator).
func hintsWorld() *world {
	w := &world{clock: vclock.NewVirtual(vclock.Epoch), content: figure1Site()}
	w.srv = server.New(w.content, server.Options{EarlyHints: true, Clock: w.clock})
	w.origins = OriginMap{"site.example": server.NewOrigin(w.srv)}
	return w
}

func TestEarlyHintsPreloadsSubresources(t *testing.T) {
	w := hintsWorld()
	b := New(w.clock, EarlyHints, netsim.TransportOptions{})

	var cssDelivered time.Duration
	b.OnFetch = func(ev FetchEvent) {
		if ev.Path == "/a.css" {
			cssDelivered = ev.End
		}
	}
	res := mustLoad(t, b, w)
	// The page's two head references are hinted; both are used.
	if res.HintedPreloads != 2 {
		t.Fatalf("hinted preloads = %d, want 2 (%+v)", res.HintedPreloads, res)
	}
	if res.HintedUnused != 0 {
		t.Fatalf("hinted unused = %d, want 0", res.HintedUnused)
	}
	if res.Errors != 0 || res.Resources != 5 {
		t.Fatalf("load: %+v", res)
	}
	// FCP correctness: a.css is render-blocking even though the preload
	// started it before the parser saw the <link> tag, so the paint cannot
	// precede its delivery.
	if res.FCP < cssDelivered {
		t.Fatalf("FCP %v before blocking stylesheet delivery %v", res.FCP, cssDelivered)
	}
}

// heavyPage pads the homepage so its transfer time dominates: the window
// where hints help, because subresource fetches overlap the HTML download
// instead of waiting for it.
func heavyPage(c *server.MemContent) {
	var b strings.Builder
	b.WriteString(`<html><head><link rel="stylesheet" href="/a.css"><script src="/b.js"></script></head><body>`)
	for b.Len() < 200<<10 {
		b.WriteString("<p>a paragraph of page text that inflates the document body</p>\n")
	}
	b.WriteString(`</body></html>`)
	c.SetBody("/index.html", b.String(), server.CachePolicy{NoCache: true})
}

func TestEarlyHintsBeatConventionalOnHeavyPage(t *testing.T) {
	cond := netsim.Conditions{RTT: 40 * time.Millisecond, DownlinkBps: 8e6}
	load := func(mode Mode, hints bool) LoadResult {
		clk := vclock.NewVirtual(vclock.Epoch)
		content := figure1Site()
		heavyPage(content)
		srv := server.New(content, server.Options{EarlyHints: hints, Clock: clk})
		origins := OriginMap{"site.example": server.NewOrigin(srv)}
		b := New(clk, mode, netsim.TransportOptions{})
		res, err := b.Load(origins, cond, "site.example", "/index.html")
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	hres := load(EarlyHints, true)
	cres := load(Conventional, false)
	if hres.Errors != 0 || cres.Errors != 0 {
		t.Fatalf("errors: hints %+v conventional %+v", hres, cres)
	}
	// The blocking subresources download concurrently with the 200 KiB
	// document instead of after it.
	if hres.FCP >= cres.FCP {
		t.Fatalf("early hints FCP %v not better than conventional %v", hres.FCP, cres.FCP)
	}
	if hres.PLT >= cres.PLT {
		t.Fatalf("early hints PLT %v not better than conventional %v", hres.PLT, cres.PLT)
	}
}

// extraHintOrigin appends a preload hint for a resource the page never
// references — the wasted-preload case.
type extraHintOrigin struct {
	inner netsim.Origin
	path  string
}

func (o *extraHintOrigin) RoundTrip(req *netsim.Request) *httpcache.Response {
	resp := o.inner.RoundTrip(req)
	if req.Path == "/index.html" {
		resp.Header.Add("Link", "<"+o.path+">; rel=preload; as=image")
	}
	return resp
}

func TestEarlyHintsUnusedCounted(t *testing.T) {
	w := hintsWorld()
	w.content.SetBody("/extra.png", "PNG-NEVER-REFERENCED", server.CachePolicy{MaxAge: time.Hour, HasMaxAge: true})
	w.origins["site.example"] = &extraHintOrigin{inner: w.origins["site.example"], path: "/extra.png"}
	b := New(w.clock, EarlyHints, netsim.TransportOptions{})
	res := mustLoad(t, b, w)
	if res.HintedPreloads != 3 {
		t.Fatalf("hinted preloads = %d, want 3 (%+v)", res.HintedPreloads, res)
	}
	if res.HintedUnused != 1 {
		t.Fatalf("hinted unused = %d, want 1 (%+v)", res.HintedUnused, res)
	}
	if res.Errors != 0 {
		t.Fatalf("errors: %+v", res)
	}
}

// deltaWorld is the full catalyst configuration plus delta encoding.
func deltaWorld() *world {
	w := &world{clock: vclock.NewVirtual(vclock.Epoch), content: figure1Site()}
	w.srv = server.New(w.content, server.Options{Record: true, Clock: w.clock})
	w.origins = OriginMap{"site.example": server.NewOrigin(front(w.srv, true, catalyst.MiddlewareOptions{Delta: true}))}
	return w
}

func TestDeltaNavApplied(t *testing.T) {
	w := deltaWorld()
	b := New(w.clock, Catalyst, netsim.TransportOptions{}).WithDelta()
	first := mustLoad(t, b, w)
	if first.DeltaApplied != 0 || first.Errors != 0 {
		t.Fatalf("cold load: %+v", first)
	}

	w.clock.Advance(2 * time.Hour)
	w.content.SetBody("/index.html",
		`<html><head><link rel="stylesheet" href="/a.css"><script src="/b.js"></script></head><body>hello updated world</body></html>`,
		server.CachePolicy{NoCache: true})
	res := mustLoad(t, b, w)
	if res.DeltaApplied != 1 {
		t.Fatalf("delta applied = %d, want 1 (%+v)", res.DeltaApplied, res)
	}
	if res.DeltaFallbacks != 0 || res.Errors != 0 {
		t.Fatalf("revisit: %+v", res)
	}
	// The reconstructed document drove the load: its subresources resolved
	// and the cache now holds the patched body.
	e, ok := b.Cache().Peek("site.example/index.html")
	if !ok || !strings.Contains(string(e.Response.Body), "hello updated world") {
		t.Fatal("patched navigation body not in cache")
	}
	if strings.Contains(string(e.Response.Body), "CCD1") {
		t.Fatal("raw patch bytes cached instead of the reconstruction")
	}
}

func TestDeltaUnchangedRevisitStill304(t *testing.T) {
	w := deltaWorld()
	b := New(w.clock, Catalyst, netsim.TransportOptions{}).WithDelta()
	mustLoad(t, b, w)
	w.clock.Advance(2 * time.Hour)
	res := mustLoad(t, b, w)
	if res.DeltaApplied != 0 {
		t.Fatalf("delta applied on unchanged page (%+v)", res)
	}
	if res.Validations304 == 0 {
		t.Fatalf("unchanged revisit did not revalidate to 304 (%+v)", res)
	}
}

// corruptDeltaOrigin answers any delta-offering request with a garbage
// patch, forcing the client's verification to fail.
type corruptDeltaOrigin struct {
	inner netsim.Origin
}

func (o *corruptDeltaOrigin) RoundTrip(req *netsim.Request) *httpcache.Response {
	if base := req.Header.Get(delta.RequestHeader); base != "" {
		body := []byte("CCD1 this is not a valid patch")
		h := make(nethttp.Header)
		h.Set("Content-Type", "text/html")
		h.Set("Etag", `"bogus"`)
		h.Set(delta.FromHeader, base)
		h.Set("Content-Length", fmt.Sprint(len(body)))
		return &httpcache.Response{StatusCode: 200, Header: h, Body: body}
	}
	return o.inner.RoundTrip(req)
}

func TestDeltaFallbackOnCorruptPatch(t *testing.T) {
	w := deltaWorld()
	b := New(w.clock, Catalyst, netsim.TransportOptions{}).WithDelta()
	mustLoad(t, b, w)

	w.clock.Advance(2 * time.Hour)
	w.content.SetBody("/index.html",
		`<html><head><link rel="stylesheet" href="/a.css"><script src="/b.js"></script></head><body>changed</body></html>`,
		server.CachePolicy{NoCache: true})
	w.origins["site.example"] = &corruptDeltaOrigin{inner: w.origins["site.example"]}
	res := mustLoad(t, b, w)
	if res.DeltaFallbacks != 1 || res.DeltaApplied != 0 {
		t.Fatalf("fallbacks = %d, applied = %d, want 1/0 (%+v)", res.DeltaFallbacks, res.DeltaApplied, res)
	}
	if res.Errors != 0 {
		t.Fatalf("errors after fallback: %+v", res)
	}
	// The fallback refetch (no delta offer) got the real document.
	e, ok := b.Cache().Peek("site.example/index.html")
	if !ok || !strings.Contains(string(e.Response.Body), "changed") {
		t.Fatal("fallback did not cache the full document")
	}
}

// brokenSite is figure1Site plus a reference to a resource that 404s until
// the test deploys it.
func brokenSite() *server.MemContent {
	c := figure1Site()
	c.SetBody("/index.html",
		`<html><head><link rel="stylesheet" href="/a.css"><script src="/b.js"></script></head><body>hello<img src="/missing.png"></body></html>`,
		server.CachePolicy{NoCache: true})
	return c
}

func TestNegativeCacheConventional(t *testing.T) {
	w := &world{clock: vclock.NewVirtual(vclock.Epoch), content: brokenSite()}
	w.srv = server.New(w.content, server.Options{Clock: w.clock})
	w.origins = OriginMap{"site.example": server.NewOrigin(w.srv)}
	b := New(w.clock, Conventional, netsim.TransportOptions{}).WithNegativeCache(time.Hour)

	first := mustLoad(t, b, w)
	if first.Errors != 1 || first.NegativeHits != 0 {
		t.Fatalf("first load: %+v", first)
	}

	// Within the TTL the 404 answers locally: no repeat request.
	w.clock.Advance(10 * time.Minute)
	second := mustLoad(t, b, w)
	if second.NegativeHits != 1 {
		t.Fatalf("negative hits = %d, want 1 (%+v)", second.NegativeHits, second)
	}
	if second.Errors != 1 {
		t.Fatalf("second load errors = %d, want 1", second.Errors)
	}
	if second.NetworkRequests >= first.NetworkRequests {
		t.Fatalf("negative hit did not save a request: %d vs %d", second.NetworkRequests, first.NetworkRequests)
	}

	// The asset deploys; past the TTL the cached 404 expires and the
	// resource flips to 200.
	w.content.SetBody("/missing.png", "PNG-FINALLY-HERE", server.CachePolicy{MaxAge: time.Hour, HasMaxAge: true})
	w.clock.Advance(2 * time.Hour)
	third := mustLoad(t, b, w)
	if third.Errors != 0 || third.NegativeHits != 0 {
		t.Fatalf("post-deploy load: %+v", third)
	}
	e, ok := b.Cache().Peek("site.example/missing.png")
	if !ok || string(e.Response.Body) != "PNG-FINALLY-HERE" {
		t.Fatal("deployed resource not cached as 200")
	}
}

func TestNegativeCacheCatalystFlipViaMap(t *testing.T) {
	w := &world{clock: vclock.NewVirtual(vclock.Epoch), content: brokenSite()}
	w.srv = server.New(w.content, server.Options{Record: true, Clock: w.clock})
	w.origins = OriginMap{"site.example": server.NewOrigin(front(w.srv, true, catalyst.MiddlewareOptions{}))}
	b := New(w.clock, Catalyst, netsim.TransportOptions{}).WithNegativeCache(time.Hour)

	first := mustLoad(t, b, w)
	if first.Errors != 1 {
		t.Fatalf("first load: %+v", first)
	}

	w.clock.Advance(10 * time.Minute)
	second := mustLoad(t, b, w)
	if second.NegativeHits != 1 {
		t.Fatalf("negative hits = %d, want 1 (%+v)", second.NegativeHits, second)
	}

	// The asset deploys. Still well inside the TTL, but the next
	// navigation's X-Etag-Config now covers the path — the map evicts the
	// negative entry immediately, beating TTL expiry.
	w.content.SetBody("/missing.png", "PNG-DEPLOYED", server.CachePolicy{MaxAge: time.Hour, HasMaxAge: true})
	w.clock.Advance(10 * time.Minute)
	third := mustLoad(t, b, w)
	if third.NegativeHits != 0 {
		t.Fatalf("negative entry survived a map covering the path (%+v)", third)
	}
	if third.Errors != 0 {
		t.Fatalf("post-deploy load: %+v", third)
	}
}
