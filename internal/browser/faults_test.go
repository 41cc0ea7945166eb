package browser

import (
	"testing"
	"time"

	"cachecatalyst/internal/netsim"
	"cachecatalyst/internal/server"
)

func TestLoadSurvivesInjectedFailures(t *testing.T) {
	w, chaos := newChaosWorld(false, netsim.ChaosConfig{UpFor: 2, DownFor: 1}) // every 3rd request 503s
	b := New(w.clock, Conventional, netsim.TransportOptions{})
	res := mustLoad(t, b, w)
	failed := chaos.Stats().FlapFailures
	if failed == 0 {
		t.Fatal("no failures injected")
	}
	if res.Errors != int(failed) {
		t.Fatalf("errors = %d, injected = %d", res.Errors, failed)
	}
	// The load terminates with a finite PLT despite failures.
	if res.PLT <= 0 || res.PLT > time.Minute {
		t.Fatalf("PLT = %v", res.PLT)
	}
	// Failed responses are no-store 503s and must not enter the cache.
	for _, p := range []string{"/index.html", "/a.css", "/b.js", "/c.js", "/d.jpg"} {
		if e, ok := b.Cache().Peek("site.example" + p); ok && e.Response.StatusCode != 200 {
			t.Fatalf("non-200 cached for %s: %d", p, e.Response.StatusCode)
		}
	}
}

func TestCatalystRecoversAfterFailuresStop(t *testing.T) {
	w, _ := newChaosWorld(true, netsim.ChaosConfig{UpFor: 1, DownFor: 1}) // every 2nd request fails on the first visit
	b := New(w.clock, Catalyst, netsim.TransportOptions{})
	first := mustLoad(t, b, w)
	if first.Errors == 0 {
		t.Fatal("expected cold-load errors")
	}

	// Failures stop; the next visit must fully succeed and warm the SW.
	w.origins["site.example"] = server.NewOrigin(w.srv)
	w.clock.Advance(time.Minute)
	second := mustLoad(t, b, w)
	if second.Errors != 0 {
		t.Fatalf("second load errors: %+v", second)
	}
	// And the third visit gets the full catalyst benefit.
	w.clock.Advance(time.Minute)
	third := mustLoad(t, b, w)
	if third.Errors != 0 {
		t.Fatalf("third load errors: %+v", third)
	}
	if third.LocalHits == 0 {
		t.Fatal("no local hits after recovery")
	}
	if third.PLT >= second.PLT {
		t.Fatalf("no improvement after recovery: %v vs %v", third.PLT, second.PLT)
	}
}

func TestNavigationFailureIsTerminal(t *testing.T) {
	// If the navigation itself 503s, the load ends with one error and no
	// subresource fetches.
	w, _ := newChaosWorld(false, netsim.ChaosConfig{FailProb: 1}) // everything fails
	b := New(w.clock, Conventional, netsim.TransportOptions{})
	res := mustLoad(t, b, w)
	if res.Errors != 1 || res.NetworkRequests != 1 {
		t.Fatalf("failed navigation: %+v", res)
	}
}
