package browser

import (
	"testing"
	"time"

	"cachecatalyst/internal/baselines"
	"cachecatalyst/internal/netsim"
	"cachecatalyst/internal/server"
	"cachecatalyst/internal/vclock"
)

// newBundledWorld wires the Figure 1 site behind a bundling origin.
func newBundledWorld(policy baselines.Policy) *world {
	w := &world{clock: vclock.NewVirtual(vclock.Epoch), content: figure1Site()}
	w.srv = server.New(w.content, server.Options{Clock: w.clock})
	w.origins = OriginMap{"site.example": baselines.NewBundleOrigin(server.NewOrigin(front(w.srv, true)), policy, nil)}
	return w
}

func TestPushAllColdLoad(t *testing.T) {
	w := newBundledWorld(baselines.PushAll)
	b := New(w.clock, Bundled, netsim.TransportOptions{})
	res := mustLoad(t, b, w)
	// Static resources (a.css, b.js) ride the bundle; the JS-discovered
	// chain (c.js, d.jpg) still needs network round trips.
	if res.PushedResources != 2 {
		t.Fatalf("pushed = %d, want 2 (%+v)", res.PushedResources, res)
	}
	if res.NetworkRequests != 3 { // nav + c.js + d.jpg
		t.Fatalf("network requests = %d, want 3 (%+v)", res.NetworkRequests, res)
	}
	if res.LocalHits != 2 {
		t.Fatalf("local hits = %d, want 2 (%+v)", res.LocalHits, res)
	}
	if res.PushedUnused != 0 {
		t.Fatalf("unused = %d (%+v)", res.PushedUnused, res)
	}
	if res.Errors != 0 {
		t.Fatalf("errors: %+v", res)
	}
}

func TestRDRColdLoadIsOneRequest(t *testing.T) {
	w := newBundledWorld(baselines.RDR)
	b := New(w.clock, Bundled, netsim.TransportOptions{})
	res := mustLoad(t, b, w)
	if res.NetworkRequests != 1 {
		t.Fatalf("network requests = %d, want 1 (%+v)", res.NetworkRequests, res)
	}
	if res.PushedResources != 4 || res.LocalHits != 4 {
		t.Fatalf("pushed=%d hits=%d (%+v)", res.PushedResources, res.LocalHits, res)
	}
}

func TestRDRFasterThanConventionalColdAtHighRTT(t *testing.T) {
	cond := netsim.Conditions{RTT: 160 * time.Millisecond, DownlinkBps: 60e6}
	wConv := newWorld(false)
	conv := New(wConv.clock, Conventional, netsim.TransportOptions{})
	convRes, err := conv.Load(wConv.origins, cond, "site.example", "/index.html")
	if err != nil {
		t.Fatal(err)
	}
	wRDR := newBundledWorld(baselines.RDR)
	rdr := New(wRDR.clock, Bundled, netsim.TransportOptions{})
	rdrRes, err := rdr.Load(wRDR.origins, cond, "site.example", "/index.html")
	if err != nil {
		t.Fatal(err)
	}
	if rdrRes.PLT >= convRes.PLT {
		t.Fatalf("RDR cold PLT %v not better than conventional %v", rdrRes.PLT, convRes.PLT)
	}
}

func TestPushAllWastesBytesOnWarmRevisit(t *testing.T) {
	// A warm client re-receives everything the server pushes; bytes on the
	// wire barely shrink. Catalyst's warm revisit transfers almost nothing.
	wPush := newBundledWorld(baselines.PushAll)
	push := New(wPush.clock, Bundled, netsim.TransportOptions{})
	cold := mustLoad(t, push, wPush)
	wPush.clock.Advance(time.Minute)
	warm := mustLoad(t, push, wPush)
	if warm.BytesDown < cold.BytesDown*6/10 {
		t.Fatalf("push warm bytes %d suspiciously low vs cold %d", warm.BytesDown, cold.BytesDown)
	}

	wCat := newWorld(true)
	cat := New(wCat.clock, Catalyst, netsim.TransportOptions{})
	mustLoad(t, cat, wCat)
	wCat.clock.Advance(time.Minute)
	catWarm := mustLoad(t, cat, wCat)
	// The page here is tiny, so the X-Etag-Config header is a visible
	// fraction of catalyst's traffic; at corpus scale the gap is large
	// (see the baselines benchmark). Still, warm catalyst must transfer
	// strictly less than warm push-all.
	if catWarm.BytesDown >= warm.BytesDown {
		t.Fatalf("catalyst warm bytes %d not < push warm bytes %d", catWarm.BytesDown, warm.BytesDown)
	}
}

func TestBundledAgainstPlainServerFallsBack(t *testing.T) {
	// A Bundled-mode browser speaking to a non-bundling origin behaves
	// conventionally.
	w := newWorld(false)
	b := New(w.clock, Bundled, netsim.TransportOptions{})
	res := mustLoad(t, b, w)
	if res.Errors != 0 || res.NetworkRequests != 5 || res.PushedResources != 0 {
		t.Fatalf("fallback load: %+v", res)
	}
}
