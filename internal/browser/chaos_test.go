package browser

import (
	"fmt"
	"testing"
	"time"

	"cachecatalyst/internal/netsim"
	"cachecatalyst/internal/server"
	"cachecatalyst/internal/vclock"
)

// chaosGrid is the fault-injection matrix the resilience layer is graded
// against: each cell enables one failure mode (plus a combined cell), and
// every cell runs under both schemes. Seeds are fixed so cells replay
// identically run to run — a failing cell is a reproducible bug, never a
// flake.
var chaosGrid = []struct {
	name string
	cfg  netsim.ChaosConfig
}{
	{"clean", netsim.ChaosConfig{}},
	{"fail20", netsim.ChaosConfig{Seed: 11, FailProb: 0.2}},
	{"truncate25", netsim.ChaosConfig{Seed: 12, TruncateProb: 0.25}},
	{"corrupt-map", netsim.ChaosConfig{Seed: 13, CorruptMapProb: 0.5}},
	{"stall", netsim.ChaosConfig{Seed: 14, StallProb: 0.3, StallFor: 250 * time.Millisecond}},
	{"flapping", netsim.ChaosConfig{UpFor: 4, DownFor: 2}},
	{"slow-read", netsim.ChaosConfig{Seed: 16, SlowReadProb: 0.6, SlowReadFor: time.Second}},
	{"burst", netsim.ChaosConfig{Seed: 17, BurstEvery: 3, BurstSize: 4}},
	{"brownout", netsim.ChaosConfig{Seed: 18, BrownoutEvery: 4, BrownoutLen: 2, BrownoutStall: 300 * time.Millisecond}},
	{"everything", netsim.ChaosConfig{
		Seed: 15, FailProb: 0.1, TruncateProb: 0.1, CorruptMapProb: 0.1,
		StallProb: 0.1, StallFor: 120 * time.Millisecond, UpFor: 20, DownFor: 2,
		SlowReadProb: 0.1, SlowReadFor: 200 * time.Millisecond,
		BurstEvery: 7, BurstSize: 3,
	}},
}

// newChaosWorld is newWorld with the origin wrapped in the fault matrix.
func newChaosWorld(decorated bool, cfg netsim.ChaosConfig) (*world, *netsim.ChaosOrigin) {
	w := &world{clock: vclock.NewVirtual(vclock.Epoch), content: figure1Site()}
	w.srv = server.New(w.content, server.Options{Record: decorated, Clock: w.clock})
	chaos := netsim.NewChaosOrigin(server.NewOrigin(front(w.srv, decorated)), cfg)
	w.origins = OriginMap{"site.example": chaos}
	return w, chaos
}

// auditCaches fails the test if any cache layer holds a poisoned entry: a
// non-200 status or a truncated body must never be stored, whatever faults
// were in flight.
func auditCaches(t *testing.T, b *Browser) {
	t.Helper()
	for _, key := range b.Cache().Keys() {
		e, ok := b.Cache().Peek(key)
		if !ok {
			continue
		}
		if e.Response.StatusCode != 200 {
			t.Errorf("HTTP cache poisoned: %s stored with status %d", key, e.Response.StatusCode)
		}
		if e.Response.Truncated {
			t.Errorf("HTTP cache poisoned: %s stored truncated", key)
		}
	}
	if worker, ok := b.Workers().Lookup("site.example"); ok {
		for _, path := range worker.Cache().Keys() {
			resp, ok := worker.Cache().Match(path)
			if !ok {
				continue
			}
			if resp.StatusCode != 200 {
				t.Errorf("SW cache poisoned: %s stored with status %d", path, resp.StatusCode)
			}
			if resp.Truncated {
				t.Errorf("SW cache poisoned: %s stored truncated", path)
			}
		}
	}
}

// chaosLoad runs one cold+warm visit pair under the given fault matrix and
// returns both results.
func chaosLoad(t *testing.T, mode Mode, cfg netsim.ChaosConfig) (cold, warm LoadResult, b *Browser, chaos *netsim.ChaosOrigin) {
	t.Helper()
	w, chaos := newChaosWorld(mode == Catalyst, cfg)
	b = New(w.clock, mode, netsim.TransportOptions{})
	b.MaxFetchRetries = 3
	cold = mustLoad(t, b, w)
	w.clock.Advance(2 * time.Hour)
	warm = mustLoad(t, b, w)
	return cold, warm, b, chaos
}

// TestChaosMatrixInvariants drives the Figure-1 site through every cell of
// the fault grid with both schemes, checking the invariants that define
// "degraded, not broken": the load always terminates with a finite PLT, no
// cache layer ever stores a non-200 or truncated response, and the browser's
// fault accounting agrees with what the origin injected.
func TestChaosMatrixInvariants(t *testing.T) {
	// Worst-case PLT bound: every request stalled, failed and retried
	// through the full backoff ladder would still land far under this.
	const pltBound = 30 * time.Second
	for _, cell := range chaosGrid {
		for _, mode := range []Mode{Conventional, Catalyst} {
			t.Run(fmt.Sprintf("%s/%s", cell.name, mode), func(t *testing.T) {
				cold, warm, b, chaos := chaosLoad(t, mode, cell.cfg)

				for i, res := range []LoadResult{cold, warm} {
					if res.PLT <= 0 || res.PLT > pltBound {
						t.Errorf("load %d PLT %v out of (0, %v]", i, res.PLT, pltBound)
					}
				}
				auditCaches(t, b)

				st := chaos.Stats()
				if fails := st.Failures + st.FlapFailures; fails > 0 && cold.Retries+warm.Retries == 0 {
					t.Errorf("origin injected %d failures but browser recorded no retries", fails)
				}
				if st.Truncations > 0 && cold.TruncatedResponses+warm.TruncatedResponses == 0 {
					t.Errorf("origin truncated %d responses but browser recorded none", st.Truncations)
				}
				if cold.TruncatedResponses+warm.TruncatedResponses != st.Truncations {
					t.Errorf("truncation accounting: browser %d, origin %d",
						cold.TruncatedResponses+warm.TruncatedResponses, st.Truncations)
				}
				if cell.name == "clean" && st.Injected() != 0 {
					t.Errorf("clean cell injected faults: %+v", st)
				}
				// The dedicated overload cells must actually fire their
				// fault mode, and burst bookkeeping must stay consistent.
				switch cell.name {
				case "slow-read":
					if st.SlowReads == 0 {
						t.Error("slow-read cell drained no responses slowly")
					}
				case "burst":
					if st.Bursts == 0 {
						t.Error("burst cell fired no bursts")
					}
				case "brownout":
					if st.BrownoutStalls == 0 {
						t.Error("brownout cell stalled no requests")
					}
				}
				if want := st.Bursts * int64(cell.cfg.BurstSize-1); st.Bursts > 0 && st.BurstRequests != want {
					t.Errorf("burst accounting: %d bursts of size %d but %d duplicates, want %d",
						st.Bursts, cell.cfg.BurstSize, st.BurstRequests, want)
				}
			})
		}
	}
}

// TestChaosCatalystAdvantageSurvivesFaults checks the paper's headline
// result under fire: across the fault grid, warm catalyst revisits stay
// faster than warm conventional revisits. The clean cell must show the
// strict Figure-1 gap; under injected faults the advantage is asserted in
// aggregate (a single cell can flip when a fault lands on catalyst's one
// navigation request, but the grid total must not).
func TestChaosCatalystAdvantageSurvivesFaults(t *testing.T) {
	var convTotal, catTotal time.Duration
	for _, cell := range chaosGrid {
		_, convWarm, _, _ := chaosLoad(t, Conventional, cell.cfg)
		_, catWarm, _, _ := chaosLoad(t, Catalyst, cell.cfg)
		convTotal += convWarm.PLT
		catTotal += catWarm.PLT
		t.Logf("%-12s conventional %8v  catalyst %8v", cell.name, convWarm.PLT, catWarm.PLT)
		if cell.name == "clean" && catWarm.PLT >= convWarm.PLT {
			t.Errorf("clean cell: catalyst %v not faster than conventional %v", catWarm.PLT, convWarm.PLT)
		}
	}
	if catTotal >= convTotal {
		t.Fatalf("catalyst advantage lost under faults: %v total vs conventional %v", catTotal, convTotal)
	}
}

// TestChaosTotalOutageDegradesNotCrashes pins behaviour when the origin is
// down for an entire revisit window: the load terminates, errors are counted
// rather than thrown, and fresh cached entries still serve locally.
func TestChaosTotalOutageDegradesNotCrashes(t *testing.T) {
	for _, mode := range []Mode{Conventional, Catalyst} {
		t.Run(mode.String(), func(t *testing.T) {
			w, _ := newChaosWorld(mode == Catalyst, netsim.ChaosConfig{})
			b := New(w.clock, mode, netsim.TransportOptions{})
			b.MaxFetchRetries = 2
			mustLoad(t, b, w) // healthy cold load

			// Replace the origin with one that always 503s.
			down := netsim.NewChaosOrigin(server.NewOrigin(w.srv), netsim.ChaosConfig{Seed: 1, FailProb: 1})
			w.origins["site.example"] = down

			w.clock.Advance(2 * time.Hour)
			res := mustLoad(t, b, w)
			if res.PLT <= 0 {
				t.Fatalf("outage revisit PLT %v", res.PLT)
			}
			// The navigation (no-cache) must fail; fresh subresources may
			// still be served locally. Nothing hangs, nothing panics.
			if res.Errors == 0 {
				t.Fatalf("total outage produced no errors: %+v", res)
			}
			if res.Retries == 0 {
				t.Fatalf("no retries attempted during outage: %+v", res)
			}
			auditCaches(t, b)
		})
	}
}

// TestChaosRetryRecoversTransientFailure pins the retry path end to end: an
// origin that 503s exactly once per resource yields a fully successful load
// (zero errors) at the cost of retries and backoff time.
func TestChaosRetryRecoversTransientFailure(t *testing.T) {
	w, chaos := newChaosWorld(false, netsim.ChaosConfig{UpFor: 1, DownFor: 1})
	b := New(w.clock, Conventional, netsim.TransportOptions{})
	b.MaxFetchRetries = 3
	res := mustLoad(t, b, w)
	if res.Errors != 0 {
		t.Fatalf("retries did not absorb transient 503s: %+v", res)
	}
	if res.Retries == 0 || chaos.Stats().FlapFailures == 0 {
		t.Fatalf("no failures actually injected: %+v, failed=%d", res, chaos.Stats().FlapFailures)
	}
	if res.Resources != 5 {
		t.Fatalf("resources = %d, want 5", res.Resources)
	}
}

// TestChaosCorruptMapNeverFailsLoad pins the header-corruption mode: with
// every X-Etag-Config truncated in transit, a catalyst browser must load the
// site exactly as a conventional one would — no errors, no poisoned caches,
// map decode failures counted on the worker.
func TestChaosCorruptMapNeverFailsLoad(t *testing.T) {
	w, chaos := newChaosWorld(true, netsim.ChaosConfig{Seed: 2, CorruptMapProb: 1})
	b := New(w.clock, Catalyst, netsim.TransportOptions{})
	b.MaxFetchRetries = 3
	cold := mustLoad(t, b, w)
	if cold.Errors != 0 {
		t.Fatalf("corrupt map failed the cold load: %+v", cold)
	}
	w.clock.Advance(2 * time.Hour)
	warm := mustLoad(t, b, w)
	if warm.Errors != 0 {
		t.Fatalf("corrupt map failed the warm load: %+v", warm)
	}
	if chaos.Stats().CorruptedMaps == 0 {
		t.Fatal("no maps actually corrupted")
	}
	if worker, ok := b.Workers().Lookup("site.example"); ok {
		if worker.Stats().MapDecodeFailures == 0 {
			t.Fatal("worker never saw a corrupt map")
		}
		if worker.Stats().MapUpdates != 0 {
			t.Fatalf("worker accepted a corrupt map: %+v", worker.Stats())
		}
	}
	auditCaches(t, b)
}
