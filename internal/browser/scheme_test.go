package browser

import (
	nethttp "net/http"
	"strings"
	"testing"
	"time"

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

// brokenSite is figure1Site plus a reference to a resource that 404s until
// the test deploys it.
func brokenSite() *server.MemContent {
	c := figure1Site()
	c.SetBody("/index.html",
		`<html><head><link rel="stylesheet" href="/a.css"><script src="/b.js"></script></head><body>hello<img src="/missing.png"></body></html>`,
		server.CachePolicy{NoCache: true})
	return c
}

// TestBrokenReferenceFailsUntilDeployed: a reference deployed before its
// asset fails on every load, and every failure is a network fetch — no
// client layer keeps a 404 — until the asset deploys, when the next load
// fetches and stores it. Conventional mode reads the HTTP cache, Catalyst
// mode the Service Worker's map and storage.
func TestBrokenReferenceFailsUntilDeployed(t *testing.T) {
	for _, mode := range []Mode{Conventional, Catalyst} {
		t.Run(mode.String(), func(t *testing.T) {
			w := &world{clock: vclock.NewVirtual(vclock.Epoch), content: brokenSite()}
			w.srv = server.New(w.content, server.Options{Record: true, Clock: w.clock})
			w.origins = OriginMap{"site.example": server.NewOrigin(front(w.srv, mode == Catalyst))}
			b := New(w.clock, mode, netsim.TransportOptions{})
			var missing []FetchEvent
			b.OnFetch = func(ev FetchEvent) {
				if ev.Path == "/missing.png" {
					missing = append(missing, ev)
				}
			}

			for i := 0; i < 2; i++ {
				missing = nil
				res := mustLoad(t, b, w)
				if res.Errors != 1 {
					t.Fatalf("load %d: errors = %d, want 1 (%+v)", i, res.Errors, res)
				}
				if len(missing) != 1 || missing[0].Source != "network" || missing[0].Status != nethttp.StatusNotFound {
					t.Fatalf("load %d: /missing.png fetches = %+v, want one network 404", i, missing)
				}
				w.clock.Advance(10 * time.Minute)
			}

			w.content.SetBody("/missing.png", "PNG-DEPLOYED", server.CachePolicy{MaxAge: time.Hour, HasMaxAge: true})
			if res := mustLoad(t, b, w); res.Errors != 0 {
				t.Fatalf("post-deploy load: %+v", res)
			}
			stored := false
			if mode == Catalyst {
				worker, _ := b.Workers().Lookup("site.example")
				_, stored = worker.Cache().Match("/missing.png")
			} else {
				_, stored = b.Cache().Peek("site.example/missing.png")
			}
			if !stored {
				t.Fatal("deployed resource not stored")
			}
		})
	}
}
