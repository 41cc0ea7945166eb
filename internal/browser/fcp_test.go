package browser

import (
	"testing"
	"time"

	"cachecatalyst/internal/netsim"
	"cachecatalyst/internal/server"
	"cachecatalyst/internal/vclock"
)

// fcpSite: one blocking stylesheet with an @import chain, one sync script,
// one async script, and a large slow image that should NOT gate FCP.
func fcpSite() *server.MemContent {
	c := server.NewMemContent()
	nc := server.CachePolicy{NoCache: true}
	c.SetBody("/index.html", `<html><head>
		<link rel="stylesheet" href="/a.css">
		<script src="/sync.js"></script>
		<script src="/lazy.js" async></script>
	</head><body><img src="/huge.jpg"></body></html>`, nc)
	c.SetBody("/a.css", `@import "b.css"; body{}`, nc)
	c.SetBody("/b.css", ".x{}", nc)
	c.SetBody("/sync.js", "s()", nc)
	c.SetBody("/lazy.js", "l()", nc)
	c.SetBody("/huge.jpg", string(make([]byte, 1_000_000)), nc) // 1 MB
	return c
}

func fcpWorld(decorated bool) *world {
	w := &world{clock: vclock.NewVirtual(vclock.Epoch), content: fcpSite()}
	w.srv = server.New(w.content, server.Options{Record: decorated, Clock: w.clock})
	w.origins = OriginMap{"site.example": server.NewOrigin(front(w.srv, decorated))}
	return w
}

func TestFCPBeforePLTWhenImagesAreSlow(t *testing.T) {
	w := fcpWorld(false)
	b := New(w.clock, Conventional, netsim.TransportOptions{})
	// 4 Mbps: the 1MB image takes ~2s; render-blocking resources are tiny.
	res, err := b.Load(w.origins, netsim.Conditions{RTT: 40 * time.Millisecond, DownlinkBps: 4e6}, "site.example", "/index.html")
	if err != nil {
		t.Fatal(err)
	}
	if res.FCP <= 0 || res.FCP > res.PLT {
		t.Fatalf("FCP %v outside (0, PLT=%v]", res.FCP, res.PLT)
	}
	if res.FCP*2 > res.PLT {
		t.Fatalf("FCP %v not well before PLT %v despite slow image", res.FCP, res.PLT)
	}
}

func TestFCPWaitsForImportChain(t *testing.T) {
	w := fcpWorld(false)
	b := New(w.clock, Conventional, netsim.TransportOptions{})
	res, err := b.Load(w.origins, cond40ms(), "site.example", "/index.html")
	if err != nil {
		t.Fatal(err)
	}
	// The chain index → a.css → b.css costs at least 3 sequential
	// exchanges plus the handshake.
	if minFCP := 4 * 40 * time.Millisecond; res.FCP < minFCP {
		t.Fatalf("FCP %v below @import chain bound %v", res.FCP, minFCP)
	}
}

func TestFCPNotGatedByAsyncScript(t *testing.T) {
	// Make only the async script enormous: FCP must not wait for it.
	w := fcpWorld(false)
	w.content.SetBody("/lazy.js", string(make([]byte, 2_000_000)), server.CachePolicy{NoCache: true})
	b := New(w.clock, Conventional, netsim.TransportOptions{})
	res, err := b.Load(w.origins, netsim.Conditions{RTT: 40 * time.Millisecond, DownlinkBps: 4e6}, "site.example", "/index.html")
	if err != nil {
		t.Fatal(err)
	}
	if res.FCP*2 > res.PLT {
		t.Fatalf("FCP %v gated by async script (PLT %v)", res.FCP, res.PLT)
	}
}

func TestCatalystImprovesFCPOnRevisit(t *testing.T) {
	runWarm := func(catalyst bool) LoadResult {
		w := fcpWorld(catalyst)
		mode := Conventional
		if catalyst {
			mode = Catalyst
		}
		b := New(w.clock, mode, netsim.TransportOptions{})
		if _, err := b.Load(w.origins, cond40ms(), "site.example", "/index.html"); err != nil {
			t.Fatal(err)
		}
		w.clock.Advance(time.Hour)
		res, err := b.Load(w.origins, cond40ms(), "site.example", "/index.html")
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	conv := runWarm(false)
	cat := runWarm(true)
	// Everything here is no-cache: the conventional revisit revalidates
	// the blocking chain; catalyst's FCP needs only the navigation.
	if cat.FCP >= conv.FCP {
		t.Fatalf("catalyst FCP %v not better than conventional %v", cat.FCP, conv.FCP)
	}
}

func TestFCPDefaultsToPLTWithoutBlockingResources(t *testing.T) {
	c := server.NewMemContent()
	c.SetBody("/index.html", `<html><body><img src="/i.png"></body></html>`, server.CachePolicy{NoCache: true})
	c.SetBody("/i.png", "PNG", server.CachePolicy{NoCache: true})
	w := &world{clock: vclock.NewVirtual(vclock.Epoch), content: c}
	w.srv = server.New(c, server.Options{Clock: w.clock})
	w.origins = OriginMap{"site.example": server.NewOrigin(w.srv)}
	b := New(w.clock, Conventional, netsim.TransportOptions{})
	res := mustLoad(t, b, w)
	// FCP = HTML processed (no blocking subresources): strictly before the
	// image completes.
	if res.FCP >= res.PLT {
		t.Fatalf("FCP %v not before PLT %v", res.FCP, res.PLT)
	}
	if res.FCP <= 0 {
		t.Fatal("FCP unset")
	}
}
