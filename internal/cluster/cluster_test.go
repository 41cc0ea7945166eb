package cluster

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"cachecatalyst/internal/core"
	"cachecatalyst/internal/etag"
	"cachecatalyst/internal/telemetry"
)

func TestRingDistribution(t *testing.T) {
	r := NewRing("a", "b", "c")
	counts := map[string]int{}
	const keys = 3000
	for i := 0; i < keys; i++ {
		counts[r.Owner(fmt.Sprintf("/page/%d", i))]++
	}
	for _, id := range []string{"a", "b", "c"} {
		share := float64(counts[id]) / keys
		if share < 0.20 || share > 0.47 {
			t.Fatalf("member %s owns %.0f%% of keys — ring badly skewed (%v)", id, share*100, counts)
		}
	}
}

func TestRingStableOwnership(t *testing.T) {
	a := NewRing("a", "b", "c")
	b := NewRing("c", "b", "a") // order must not matter
	for i := 0; i < 500; i++ {
		k := fmt.Sprintf("/k%d", i)
		if a.Owner(k) != b.Owner(k) {
			t.Fatalf("construction order changed ownership of %q", k)
		}
	}
}

// TestRingMinimalMovement pins the consistent-hashing guarantee: removing
// one member moves only that member's keys.
func TestRingMinimalMovement(t *testing.T) {
	r := NewRing("a", "b", "c")
	before := map[string]string{}
	for i := 0; i < 2000; i++ {
		k := fmt.Sprintf("/k%d", i)
		before[k] = r.Owner(k)
	}
	r.Remove("b")
	moved := 0
	for k, prev := range before {
		now := r.Owner(k)
		if now == "b" {
			t.Fatalf("removed member still owns %q", k)
		}
		if prev != "b" && now != prev {
			moved++
		}
	}
	if moved != 0 {
		t.Fatalf("%d keys not owned by the removed member changed owner", moved)
	}
}

func TestRingOwnerN(t *testing.T) {
	r := NewRing("a", "b", "c")
	owners := r.OwnerN("/page", 3)
	if len(owners) != 3 {
		t.Fatalf("OwnerN(3) = %v", owners)
	}
	seen := map[string]bool{}
	for _, o := range owners {
		if seen[o] {
			t.Fatalf("duplicate owner in %v", owners)
		}
		seen[o] = true
	}
	if owners[0] != r.Owner("/page") {
		t.Fatal("OwnerN[0] differs from Owner")
	}
	if got := r.OwnerN("/page", 5); len(got) != 3 {
		t.Fatalf("OwnerN(5) on 3 members = %v", got)
	}
	empty := NewRing()
	if empty.Owner("/x") != "" {
		t.Fatal("empty ring returned an owner")
	}
}

func validEnc(t *testing.T) string {
	t.Helper()
	tag := etag.ForBytes([]byte("body"))
	return `{"/app.css":` + quoted(tag.String()) + `}`
}

func quoted(s string) string {
	var b bytes.Buffer
	b.WriteByte('"')
	b.WriteString(strings.ReplaceAll(s, `"`, `\"`))
	b.WriteByte('"')
	return b.String()
}

func TestExchangeRoundTrip(t *testing.T) {
	// Receiver side: a bare exchange with no peers.
	recv := NewExchange(ExchangeOptions{Instance: "b"})
	defer recv.Close()
	srv := httptest.NewServer(recv.Handler())
	defer srv.Close()

	// Sender side gossips to the receiver.
	send := NewExchange(ExchangeOptions{Instance: "a", Peers: []string{srv.URL}})
	defer send.Close()

	enc := validEnc(t)
	published := time.Now()
	exp := published.Add(5 * time.Second).UnixNano()
	send.Publish("shop", "/index.html", "W/\"abc\"", enc, exp)

	deadline := time.Now().Add(2 * time.Second)
	for {
		if got, gotExp, ok := recv.Lookup("shop", "/index.html", "W/\"abc\""); ok {
			// The receiver trusts the lifetime left when it was sent, from
			// when it arrived: past the sender's own expiry by at most the
			// time in flight.
			if got != enc || gotExp-exp > int64(time.Since(published)) || gotExp <= time.Now().UnixNano() {
				t.Fatalf("Lookup = (%q, %d), want (%q, at most %v past %d and unexpired)", got, gotExp, enc, time.Since(published), exp)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("announcement never arrived")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// A different validator must miss: the binding is entity-exact.
	if _, _, ok := recv.Lookup("shop", "/index.html", "W/\"other\""); ok {
		t.Fatal("Lookup matched a different validator")
	}
	// A different tenant must miss even for the same page.
	if _, _, ok := recv.Lookup("blog", "/index.html", "W/\"abc\""); ok {
		t.Fatal("Lookup crossed tenants")
	}
}

func TestExchangeRejects(t *testing.T) {
	reg := telemetry.NewRegistry()
	e := NewExchange(ExchangeOptions{Instance: "x", Telemetry: reg})
	defer e.Close()
	h := e.Handler()
	m := &e.Metrics

	cases := []struct {
		name, body string
		wantCode   int
		reason     *telemetry.Counter
	}{
		{"not json", "{", 400, &m.RejectedMalformed},
		{"missing fields", `{"tenant":"t"}`, 400, &m.RejectedMalformed},
		{"bad encoding", fmt.Sprintf(`{"tenant":"t","page":"/","tag":"x","enc":"not a map","ttl":%d}`, time.Minute), 400, &m.RejectedBadEncoding},
		{"expired", `{"tenant":"t","page":"/","tag":"x","enc":"{}","ttl":0}`, 400, &m.RejectedExpired},
		{"too large", strings.Repeat(" ", maxAnnouncementBytes+1), 413, &m.RejectedTooLarge},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			before := c.reason.Load()
			req := httptest.NewRequest("POST", HotMapPath, strings.NewReader(c.body))
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != c.wantCode {
				t.Fatalf("code = %d, want %d", rec.Code, c.wantCode)
			}
			if got := c.reason.Load() - before; got != 1 {
				t.Fatalf("the reason's counter moved by %d, want 1", got)
			}
		})
	}
	if got := e.Metrics.Rejected.Load(); got != int64(len(cases)) {
		t.Fatalf("Rejected = %d, want %d", got, len(cases))
	}
	counters := reg.Snapshot().Counters
	want := map[string]int64{"cluster.rejected": 5, "cluster.rejected.malformed": 2, "cluster.rejected.bad_encoding": 1,
		"cluster.rejected.expired": 1, "cluster.rejected.too_large": 1}
	for name, n := range want {
		if counters[name] != n {
			t.Errorf("%s = %d, want %d", name, counters[name], n)
		}
	}
	if e.local.Len() != 0 {
		t.Fatal("a rejected announcement was stored")
	}
}

// roundTripFunc is an http.RoundTripper in one function: the peers of
// TestExchangeDrops answer without a network.
type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// TestExchangeDrops drives each reason an announcement is dropped for and
// checks that it lands on its own counter and on the Dropped total.
func TestExchangeDrops(t *testing.T) {
	answer := func(status int) roundTripFunc {
		return func(*http.Request) (*http.Response, error) {
			return &http.Response{StatusCode: status, Body: io.NopCloser(strings.NewReader(""))}, nil
		}
	}
	refuse := roundTripFunc(func(*http.Request) (*http.Response, error) { return nil, errors.New("connection refused") })
	for _, c := range []struct {
		name   string
		peer   string
		rt     http.RoundTripper
		reason func(*ExchangeMetrics) *telemetry.Counter
	}{
		{"build", "http://bad host", answer(200), func(m *ExchangeMetrics) *telemetry.Counter { return &m.DroppedBuild }},
		{"send", "http://peer", refuse, func(m *ExchangeMetrics) *telemetry.Counter { return &m.DroppedSend }},
		{"status", "http://peer", answer(500), func(m *ExchangeMetrics) *telemetry.Counter { return &m.DroppedStatus }},
	} {
		t.Run(c.name, func(t *testing.T) {
			e := tunedExchange(ExchangeOptions{Instance: "a", Peers: []string{c.peer}}, &http.Client{Transport: c.rt}, queueLen)
			defer e.Close()
			e.Publish("t", "/", `"v"`, "{}", time.Now().Add(time.Minute).UnixNano())
			waitFor(t, c.reason(&e.Metrics), 1)
			if e.Metrics.Dropped.Load() != 1 {
				t.Fatalf("Dropped = %d, want 1", e.Metrics.Dropped.Load())
			}
		})
	}

	t.Run("queue full", func(t *testing.T) {
		entered, release := make(chan struct{}), make(chan struct{})
		stall := roundTripFunc(func(*http.Request) (*http.Response, error) {
			entered <- struct{}{}
			<-release
			return answer(200)(nil)
		})
		e := tunedExchange(ExchangeOptions{Instance: "a", Peers: []string{"http://peer"}}, &http.Client{Transport: stall}, 1)
		defer e.Close()
		exp := time.Now().Add(time.Minute).UnixNano()
		e.Publish("t", "/1", `"v"`, "{}", exp)
		<-entered                              // the sender holds the first announcement
		e.Publish("t", "/2", `"v"`, "{}", exp) // fills the queue
		e.Publish("t", "/3", `"v"`, "{}", exp) // finds it full
		close(release)
		<-entered // the second announcement reached the sender
		if got := e.Metrics.DroppedQueueFull.Load(); got != 1 {
			t.Fatalf("DroppedQueueFull = %d, want 1", got)
		}
		if got := e.Metrics.Dropped.Load(); got != 1 {
			t.Fatalf("Dropped = %d, want 1", got)
		}
	})
}

// waitFor waits until c reads want, failing after a second.
func waitFor(t *testing.T, c *telemetry.Counter, want int64) {
	t.Helper()
	for deadline := time.Now().Add(time.Second); c.Load() != want; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("counter = %d, want %d", c.Load(), want)
		}
	}
}

// TestExchangeTTLCap pins that a sender's extravagant lifetime is clamped
// to the receiver's maxTTL.
func TestExchangeTTLCap(t *testing.T) {
	e := NewExchange(ExchangeOptions{Instance: "x"})
	e.maxTTL = 50 * time.Millisecond
	defer e.Close()
	body := fmt.Sprintf(`{"tenant":"t","page":"/","tag":"v","enc":"{}","ttl":%d}`, time.Hour)
	rec := httptest.NewRecorder()
	e.Handler().ServeHTTP(rec, httptest.NewRequest("POST", HotMapPath, strings.NewReader(body)))
	if rec.Code != 200 {
		t.Fatalf("announcement refused: %d %s", rec.Code, rec.Body.String())
	}
	if _, exp, ok := e.Lookup("t", "/", "v"); !ok {
		t.Fatal("announcement not stored")
	} else if until := time.Until(time.Unix(0, exp)); until > 60*time.Millisecond {
		t.Fatalf("expiry %v out, beyond the 50ms MaxTTL", until)
	}
	time.Sleep(60 * time.Millisecond)
	if _, _, ok := e.Lookup("t", "/", "v"); ok {
		t.Fatal("expired announcement still served")
	}
}

// TestExchangeTrustsRemainingLifetime: an announcement carries the lifetime
// its map has left, and the receiver counts it from its own receive time, so
// a sender whose clock runs ahead buys its peers no more trust than its
// probes' one second; an absolute deadline on the wire would have been
// trusted for as long as the skew, up to the receiver's whole cap.
func TestExchangeTrustsRemainingLifetime(t *testing.T) {
	body := fmt.Sprintf(`{"tenant":"t","page":"/","tag":"v","enc":"{}","ttl":%d}`, time.Second)
	e := NewExchange(ExchangeOptions{Instance: "x"})
	defer e.Close()
	before := time.Now()
	rec := httptest.NewRecorder()
	e.Handler().ServeHTTP(rec, httptest.NewRequest("POST", HotMapPath, strings.NewReader(body)))
	if rec.Code != 200 {
		t.Fatalf("announcement with a lifetime refused: %d %s", rec.Code, rec.Body.String())
	}
	if _, exp, ok := e.Lookup("t", "/", "v"); !ok {
		t.Fatal("announcement not stored")
	} else if lo, hi := before.Add(time.Second).UnixNano(), time.Now().Add(time.Second).UnixNano(); exp < lo || exp > hi {
		t.Fatalf("expiry %v after the receipt, want its 1s lifetime", time.Unix(0, exp).Sub(before))
	}

	// The sender turns its own deadline into the lifetime left.
	recv := NewExchange(ExchangeOptions{Instance: "b"})
	defer recv.Close()
	srv := httptest.NewServer(recv.Handler())
	defer srv.Close()
	send := NewExchange(ExchangeOptions{Instance: "a", Peers: []string{srv.URL}})
	defer send.Close()
	published := time.Now()
	send.Publish("t", "/", "v", "{}", published.Add(time.Second).UnixNano())
	waitFor(t, &recv.Metrics.Received, 1)
	if _, exp, ok := recv.Lookup("t", "/", "v"); !ok {
		t.Fatal("announcement not stored")
	} else if over := time.Unix(0, exp).Sub(published); over > time.Second+time.Since(published) {
		t.Fatalf("trusted for %v after publishing, want at most the 1s lifetime plus the time in flight", over)
	}
}

// FuzzHotMapAnnouncement throws arbitrary bodies at the hot-map endpoint, a
// trust boundary: it must never panic, must store only encodings
// core.DecodeMap accepts, and must never hold one past its receipt plus
// maxTTL.
func FuzzHotMapAnnouncement(f *testing.F) {
	f.Add([]byte(`{"tenant":"t","page":"/","tag":"v","enc":"{}","ttl":1000000000}`))
	f.Add([]byte(`{"tenant":"t","page":"/","tag":"v","enc":"{\"/a.css\":\"\\\"x\\\"\"}","ttl":9223372036854775807}`))
	f.Add([]byte(`{"tenant":"t","page":"/","tag":"v","enc":"not a map","ttl":5}`))
	f.Add([]byte(`{"tenant":"t","page":"/","tag":"v","enc":"{}","ttl":-1}`))
	f.Add([]byte(`{"tenant":"t","page":"/","tag":"v","enc":"{}","expires":1}`))
	f.Add([]byte(`[1,2,3]`))
	f.Add([]byte(`{`))
	e := NewExchange(ExchangeOptions{Instance: "x"})
	defer e.Close()
	h := e.Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		before := time.Now()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", HotMapPath, bytes.NewReader(body)))
		var msg hotMapMsg
		if rec.Code != http.StatusOK {
			return
		}
		if err := json.Unmarshal(body, &msg); err != nil {
			t.Fatalf("accepted a body that is not an announcement: %v", err)
		}
		a, ok := e.local.Peek(hotMapKey(msg.Tenant, msg.Page, msg.Tag))
		if !ok {
			t.Fatal("accepted announcement not stored")
		}
		if _, err := core.DecodeMap(a.Enc); err != nil {
			t.Fatalf("stored an encoding DecodeMap refuses: %q: %v", a.Enc, err)
		}
		if limit := time.Now().Add(maxTTL).UnixNano(); a.expires > limit {
			t.Fatalf("held until %v past receipt, beyond maxTTL %v", time.Unix(0, a.expires).Sub(before), maxTTL)
		}
	})
}
