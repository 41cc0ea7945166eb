package httpcache

import (
	"net/http"
	"testing"
	"time"

	"cachecatalyst/internal/vclock"
)

func resp404() *Response {
	return &Response{
		StatusCode: http.StatusNotFound,
		Header:     http.Header{"Content-Type": {"text/plain"}},
		Body:       []byte("404 page not found\n"),
	}
}

func newNegativeCache(ttl time.Duration) (*Cache, *vclock.Virtual) {
	clk := vclock.NewVirtual(vclock.Epoch)
	return New(clk, Options{NegativeTTL: ttl}), clk
}

func TestNegativeEntryFreshWithinTTL(t *testing.T) {
	c, clk := newNegativeCache(time.Hour)
	now := clk.Now()
	c.Put("/missing.png", resp404(), now, now)

	clk.Advance(30 * time.Minute)
	e, s := c.Get("/missing.png")
	if s != Fresh {
		t.Fatalf("state = %v, want Fresh", s)
	}
	if !e.Negative || e.Response.StatusCode != http.StatusNotFound {
		t.Fatalf("entry = %+v, want negative 404", e)
	}
	st := c.Stats()
	if st.NegativeHits != 1 || st.Hits != 1 {
		t.Fatalf("stats = %+v, want 1 negative hit counted as a hit", st)
	}
}

// TestNegativeEntryNeverStale: past the TTL the entry is deleted and the
// lookup is a Miss — not Stale. A Stale negative entry would invite a
// conditional revalidation or a stale-if-error serve, both of which could
// resurrect a 404 for a resource that has since appeared.
func TestNegativeEntryNeverStale(t *testing.T) {
	c, clk := newNegativeCache(time.Hour)
	now := clk.Now()
	c.Put("/missing.png", resp404(), now, now)

	clk.Advance(2 * time.Hour)
	e, s := c.Get("/missing.png")
	if s != Miss || e != nil {
		t.Fatalf("expired negative lookup = %v, %v; want nil, Miss", e, s)
	}
	if c.Len() != 0 {
		t.Fatalf("expired negative entry not deleted, len = %d", c.Len())
	}
	// A second lookup is a plain miss too — nothing left to validate.
	if _, s := c.Get("/missing.png"); s != Miss {
		t.Fatalf("second lookup = %v, want Miss", s)
	}
}

// TestNegativeFlipTo200 is the invalidation test from the issue: when the
// resource appears, the 200 must replace the cached 404 immediately.
func TestNegativeFlipTo200(t *testing.T) {
	c, clk := newNegativeCache(time.Hour)
	now := clk.Now()
	c.Put("/late.css", resp404(), now, now)

	if e, s := c.Get("/late.css"); s != Fresh || e.Response.StatusCode != http.StatusNotFound {
		t.Fatalf("before flip: %v, %v", e, s)
	}

	// The resource appears (e.g. deploy finished); the next fetch that
	// reaches the origin stores the real 200.
	clk.Advance(5 * time.Minute)
	now = clk.Now()
	ok := respWith(map[string]string{"Cache-Control": "max-age=3600"}, "body { }")
	c.Put("/late.css", ok, now, now)

	e, s := c.Get("/late.css")
	if s != Fresh || e.Response.StatusCode != http.StatusOK {
		t.Fatalf("after flip: state=%v status=%d, want Fresh 200", s, e.Response.StatusCode)
	}
	if e.Negative {
		t.Fatal("entry still marked negative after flip to 200")
	}
	if string(e.Response.Body) != "body { }" {
		t.Fatalf("body = %q", e.Response.Body)
	}
}

// TestNegativeExpiryThenFlip covers the other flip path: the negative
// entry expires first, the lookup misses, and a full fetch stores the 200.
func TestNegativeExpiryThenFlip(t *testing.T) {
	c, clk := newNegativeCache(time.Hour)
	now := clk.Now()
	c.Put("/late.js", resp404(), now, now)

	clk.Advance(90 * time.Minute)
	if _, s := c.Get("/late.js"); s != Miss {
		t.Fatalf("expired lookup = %v, want Miss", s)
	}
	now = clk.Now()
	c.Put("/late.js", respWith(map[string]string{"Cache-Control": "max-age=60"}, "ok()"), now, now)
	if e, s := c.Get("/late.js"); s != Fresh || e.Response.StatusCode != http.StatusOK {
		t.Fatalf("after refetch: %v, %v", e, s)
	}
}

func TestNegativeDisabledByDefault(t *testing.T) {
	c, clk := newTestCache() // NegativeTTL zero
	now := clk.Now()
	c.Put("/missing.png", resp404(), now, now)
	if c.Len() != 0 {
		t.Fatal("404 stored with negative caching disabled")
	}
}

func TestNegativeRespectsNoStoreAndTruncation(t *testing.T) {
	c, clk := newNegativeCache(time.Hour)
	now := clk.Now()

	ns := resp404()
	ns.Header.Set("Cache-Control", "no-store")
	c.Put("/a", ns, now, now)

	tr := resp404()
	tr.Truncated = true
	c.Put("/b", tr, now, now)

	other := resp404()
	other.StatusCode = http.StatusInternalServerError
	c.Put("/c", other, now, now)

	if c.Len() != 0 {
		t.Fatalf("stored %d unstorable error responses", c.Len())
	}
}

// TestNegativeStaleIfErrorInteraction: stale-if-error recovery works by
// serving a previously stored response when the origin fails. An expired
// negative entry must not be available for that — after expiry there is
// nothing to peek at, so an error can only surface as an error, never as
// a ghost 404.
func TestNegativeStaleIfErrorInteraction(t *testing.T) {
	c, clk := newNegativeCache(time.Hour)
	now := clk.Now()
	c.Put("/ghost.png", resp404(), now, now)

	// Within the TTL the entry is peekable — serving the 404 is correct.
	if e, ok := c.Peek("/ghost.png"); !ok || !e.Negative {
		t.Fatal("negative entry should be stored within TTL")
	}

	clk.Advance(2 * time.Hour)
	// Expiry is enforced on lookup; after a Get the entry is gone and a
	// stale-if-error fallback has nothing to serve.
	if _, s := c.Get("/ghost.png"); s != Miss {
		t.Fatalf("expired lookup = %v, want Miss", s)
	}
	if _, ok := c.Peek("/ghost.png"); ok {
		t.Fatal("expired negative entry still peekable for stale-if-error")
	}
}
