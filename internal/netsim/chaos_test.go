package netsim

import (
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"cachecatalyst/internal/httpcache"
)

// okOrigin answers every request 200 with a body and an X-Etag-Config
// header, so every fault mode has something to chew on.
type okOrigin struct{}

func (okOrigin) RoundTrip(req *Request) *httpcache.Response {
	h := make(http.Header)
	h.Set("Content-Type", "text/html")
	h.Set(etagConfigHeader, `{"/a.css":"\"v1\""}`)
	return &httpcache.Response{StatusCode: 200, Header: h, Body: []byte(strings.Repeat("x", 64))}
}

func drive(o Origin, n int) []*httpcache.Response {
	out := make([]*httpcache.Response, n)
	for i := range out {
		out[i] = o.RoundTrip(&Request{Method: "GET", Path: "/"})
	}
	return out
}

func TestChaosSeedDeterminism(t *testing.T) {
	cfg := ChaosConfig{Seed: 7, FailProb: 0.3, TruncateProb: 0.3, CorruptMapProb: 0.3}
	a := NewChaosOrigin(okOrigin{}, cfg)
	b := NewChaosOrigin(okOrigin{}, cfg)
	ra, rb := drive(a, 200), drive(b, 200)
	for i := range ra {
		if ra[i].StatusCode != rb[i].StatusCode || ra[i].Truncated != rb[i].Truncated ||
			ra[i].Header.Get(etagConfigHeader) != rb[i].Header.Get(etagConfigHeader) {
			t.Fatalf("request %d diverged between equal seeds", i)
		}
	}
	if a.Stats() != b.Stats() {
		t.Fatalf("stats diverged: %+v vs %+v", a.Stats(), b.Stats())
	}
	if st := a.Stats(); st.Failures == 0 || st.Truncations == 0 || st.CorruptedMaps == 0 {
		t.Fatalf("fault modes not all exercised: %+v", st)
	}
}

func TestChaosTruncationFlagsAndCuts(t *testing.T) {
	c := NewChaosOrigin(okOrigin{}, ChaosConfig{Seed: 1, TruncateProb: 1})
	resp := c.RoundTrip(&Request{Method: "GET", Path: "/"})
	if !resp.Truncated {
		t.Fatal("response not flagged truncated")
	}
	if len(resp.Body) != 32 {
		t.Fatalf("body cut to %d bytes, want 32", len(resp.Body))
	}
	if httpcache.Storable(resp) {
		t.Fatal("truncated response considered storable")
	}
	// The inner origin's response must not have been mutated.
	clean := okOrigin{}.RoundTrip(&Request{})
	if len(clean.Body) != 64 || clean.Truncated {
		t.Fatal("truncation mutated shared state")
	}
}

// sharedOrigin answers every request with the same response: the one body
// and header a caching origin would hand out again and again.
type sharedOrigin struct{ resp *httpcache.Response }

func (o sharedOrigin) RoundTrip(*Request) *httpcache.Response { return o.resp }

// TestChaosTruncationLeavesSharedBodyAlone: truncation shares the inner
// origin's body instead of copying it, so the cut must not be able to reach
// the half it cut off — an append to the truncated body copies — and the
// inner response's header and flags stay as they were.
func TestChaosTruncationLeavesSharedBodyAlone(t *testing.T) {
	inner := okOrigin{}.RoundTrip(&Request{})
	want := string(inner.Body)
	c := NewChaosOrigin(sharedOrigin{inner}, ChaosConfig{Seed: 1, TruncateProb: 1, CorruptMapProb: 1})
	resp := c.RoundTrip(&Request{Method: "GET", Path: "/"})
	if !resp.Truncated || len(resp.Body) != 32 {
		t.Fatalf("got truncated=%v len=%d, want a 32-byte truncated body", resp.Truncated, len(resp.Body))
	}
	if &resp.Body[0] != &inner.Body[0] {
		t.Fatal("truncation copied the body")
	}
	if cap(resp.Body) != len(resp.Body) {
		t.Fatalf("truncated body has cap %d past its len %d: an append would write into the shared array", cap(resp.Body), len(resp.Body))
	}
	_ = append(resp.Body, "yyyyyyyy"...)
	if string(inner.Body) != want {
		t.Fatal("appending to the truncated body wrote into the inner origin's body")
	}
	if inner.Truncated || inner.Header.Get(etagConfigHeader) != `{"/a.css":"\"v1\""}` {
		t.Fatal("truncation or map corruption reached the inner origin's response")
	}
}

func TestChaosCorruptsMapHeaderUndecodably(t *testing.T) {
	c := NewChaosOrigin(okOrigin{}, ChaosConfig{Seed: 1, CorruptMapProb: 1})
	resp := c.RoundTrip(&Request{Method: "GET", Path: "/"})
	v := resp.Header.Get(etagConfigHeader)
	orig := okOrigin{}.RoundTrip(&Request{}).Header.Get(etagConfigHeader)
	if v == orig {
		t.Fatal("map header not corrupted")
	}
	if v != orig[:len(orig)/2] {
		t.Fatalf("corruption shape changed: %q", v)
	}
}

func TestChaosFlappingCycle(t *testing.T) {
	c := NewChaosOrigin(okOrigin{}, ChaosConfig{UpFor: 3, DownFor: 2})
	var got []int
	for _, r := range drive(c, 10) {
		got = append(got, r.StatusCode)
	}
	want := []int{200, 200, 200, 503, 503, 200, 200, 200, 503, 503}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("flap sequence %v, want %v", got, want)
		}
	}
	if st := c.Stats(); st.FlapFailures != 4 {
		t.Fatalf("flap failures = %d, want 4", st.FlapFailures)
	}
}

func TestChaosStallCharged(t *testing.T) {
	sim := NewSim()
	chaos := NewChaosOrigin(okOrigin{}, ChaosConfig{Seed: 1, StallProb: 1, StallFor: 300 * time.Millisecond})
	cond := Conditions{RTT: 40 * time.Millisecond}
	ep := NewEndpoint(sim, cond, chaos, TransportOptions{})
	var end time.Duration
	ep.Fetch(&Request{Method: "GET", Path: "/"}, func(fr FetchResult) { end = fr.End })
	sim.Run()
	// handshake (1 RTT) + exchange (1 RTT) + stall.
	want := 2*cond.RTT + 300*time.Millisecond
	if end != want {
		t.Fatalf("fetch completed at %v, want %v", end, want)
	}
	if chaos.Stats().Stalls != 1 {
		t.Fatalf("stalls = %d", chaos.Stats().Stalls)
	}
}

func TestChaosCleanConfigIsTransparent(t *testing.T) {
	c := NewChaosOrigin(okOrigin{}, ChaosConfig{})
	for _, r := range drive(c, 50) {
		if r.StatusCode != 200 || r.Truncated || len(r.Body) != 64 {
			t.Fatal("zero-value chaos config altered traffic")
		}
	}
	if st := c.Stats(); st.Injected() != 0 || st.Requests != 50 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestChaosOriginConcurrent drives two ChaosOrigins, one drawing faults and
// one flapping, from many goroutines under -race: the atomic counters and
// the chaos lock discipline must hold up.
func TestChaosOriginConcurrent(t *testing.T) {
	chaos := NewChaosOrigin(okOrigin{}, ChaosConfig{Seed: 3, FailProb: 0.2, TruncateProb: 0.2, CorruptMapProb: 0.2, StallProb: 0.2, StallFor: time.Millisecond})
	flap := NewChaosOrigin(okOrigin{}, ChaosConfig{UpFor: 2, DownFor: 1})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				chaos.StallFor(&Request{})
				chaos.RoundTrip(&Request{Method: "GET", Path: "/"})
				flap.RoundTrip(&Request{Method: "GET", Path: "/"})
			}
		}()
	}
	wg.Wait()
	if got := chaos.Stats().Requests; got != 400 {
		t.Fatalf("chaos requests = %d, want 400", got)
	}
	if got := flap.Stats().FlapFailures; got != 400/3 { // requests 3, 6, …, 399
		t.Fatalf("flap failures = %d, want %d", got, 400/3)
	}
}
