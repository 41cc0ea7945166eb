package httpcache

import (
	"fmt"
	"net/http"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"cachecatalyst/internal/headers"
	"cachecatalyst/internal/vclock"
)

func respWith(h map[string]string, body string) *Response {
	hdr := make(http.Header)
	for k, v := range h {
		hdr.Set(k, v)
	}
	return &Response{StatusCode: 200, Header: hdr, Body: []byte(body)}
}

func newTestCache() (*Cache, *vclock.Virtual) {
	clk := vclock.NewVirtual(vclock.Epoch)
	return New(clk), clk
}

func put(c *Cache, clk *vclock.Virtual, url string, resp *Response) {
	now := clk.Now()
	resp.Header.Set("Date", headers.FormatHTTPDate(now))
	c.Put(url, resp, now, now)
}

func TestMissOnEmptyCache(t *testing.T) {
	c, _ := newTestCache()
	if e, s := c.Get("/x"); s != Miss || e != nil {
		t.Fatalf("Get on empty = %v, %v", e, s)
	}
	if st := c.Stats(); st.Misses != 1 {
		t.Fatalf("miss counter = %d", st.Misses)
	}
}

func TestFreshWithinMaxAge(t *testing.T) {
	c, clk := newTestCache()
	put(c, clk, "/a.css", respWith(map[string]string{"Cache-Control": "max-age=3600"}, "body"))

	clk.Advance(30 * time.Minute)
	e, s := c.Get("/a.css")
	if s != Fresh {
		t.Fatalf("state = %v, want Fresh", s)
	}
	if string(e.Response.Body) != "body" {
		t.Fatalf("body = %q", e.Response.Body)
	}

	clk.Advance(31 * time.Minute) // now past 1h
	if _, s := c.Get("/a.css"); s != Stale {
		t.Fatalf("state after expiry = %v, want Stale", s)
	}
}

func TestNoCacheIsAlwaysStale(t *testing.T) {
	c, clk := newTestCache()
	put(c, clk, "/b.js", respWith(map[string]string{"Cache-Control": "no-cache", "Etag": `"v1"`}, "js"))
	e, s := c.Get("/b.js")
	if s != Stale {
		t.Fatalf("no-cache entry state = %v, want Stale", s)
	}
	if tag, ok := e.ETag(); !ok || tag.Opaque != "v1" {
		t.Fatalf("validator = %v, %v", tag, ok)
	}
}

// TestNon200NotStored: an error status never displaces a stored entry; a 404
// for a URL that holds a fresh 200 leaves the 200 in place.
func TestNon200NotStored(t *testing.T) {
	c, clk := newTestCache()
	put(c, clk, "/page", respWith(map[string]string{"Cache-Control": "max-age=60"}, "ok"))
	resp := respWith(map[string]string{"Cache-Control": "max-age=60"}, "nope")
	resp.StatusCode = http.StatusNotFound
	put(c, clk, "/page", resp)
	e, s := c.Get("/page")
	if s != Fresh || e.Response.StatusCode != http.StatusOK || string(e.Response.Body) != "ok" {
		t.Fatalf("after a 404 Put: state %v, entry %+v", s, e)
	}
}

// TestStorable pins RFC 9111 §3's storage rule as this cache applies it:
// 200, 203 and 204 are kept; a 206 is refused, because without Range
// support a stored partial body would answer a full GET (§3.3–3.4); error
// statuses, truncated bodies and no-store responses are never kept: a Put
// of one leaves the cache empty, and a Get of its URL misses.
func TestStorable(t *testing.T) {
	for _, tc := range []struct {
		name      string
		status    int
		cc        string
		truncated bool
		want      bool
	}{
		{"200", http.StatusOK, "", false, true},
		{"203", http.StatusNonAuthoritativeInfo, "", false, true},
		{"204", http.StatusNoContent, "", false, true},
		{"206", http.StatusPartialContent, "max-age=60", false, false},
		{"404", http.StatusNotFound, "max-age=60", false, false},
		{"truncated", http.StatusOK, "max-age=60", true, false},
		{"no-store", http.StatusOK, "max-age=60, no-store", false, false},
		{"bare-no-store", http.StatusOK, "no-store", false, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			resp := respWith(map[string]string{"Cache-Control": tc.cc}, "body")
			resp.StatusCode = tc.status
			resp.Truncated = tc.truncated
			if got := Storable(resp); got != tc.want {
				t.Fatalf("Storable = %v, want %v", got, tc.want)
			}
			c, clk := newTestCache()
			put(c, clk, "/r", resp)
			if stored := c.Len() == 1; stored != tc.want {
				t.Fatalf("Put stored = %v, want %v", stored, tc.want)
			}
			if _, state := c.Get("/r"); (state != Miss) != tc.want {
				t.Fatalf("Get after Put = %v, want stored %v", state, tc.want)
			}
		})
	}
}

func TestMaxAgeZeroImmediatelyStale(t *testing.T) {
	c, clk := newTestCache()
	put(c, clk, "/x", respWith(map[string]string{"Cache-Control": "max-age=0", "Etag": `"e"`}, "x"))
	if _, s := c.Get("/x"); s != Stale {
		t.Fatalf("max-age=0 state = %v", s)
	}
}

func TestNoValidatorNoLifetimeIsStale(t *testing.T) {
	c, clk := newTestCache()
	put(c, clk, "/x", respWith(nil, "x"))
	if _, s := c.Get("/x"); s != Stale {
		t.Fatal("response without freshness info should be stale (validate)")
	}
}

func TestExpiresHeader(t *testing.T) {
	c, clk := newTestCache()
	resp := respWith(nil, "x")
	resp.Header.Set("Expires", headers.FormatHTTPDate(clk.Now().Add(time.Hour)))
	put(c, clk, "/x", resp)

	if _, s := c.Get("/x"); s != Fresh {
		t.Fatal("within Expires should be fresh")
	}
	clk.Advance(2 * time.Hour)
	if _, s := c.Get("/x"); s != Stale {
		t.Fatal("past Expires should be stale")
	}
}

func TestInvalidExpiresMeansStale(t *testing.T) {
	c, clk := newTestCache()
	resp := respWith(map[string]string{"Expires": "0"}, "x")
	put(c, clk, "/x", resp)
	if _, s := c.Get("/x"); s != Stale {
		t.Fatal("Expires: 0 should be immediately stale")
	}
}

func TestMaxAgeBeatsExpires(t *testing.T) {
	c, clk := newTestCache()
	resp := respWith(map[string]string{
		"Cache-Control": "max-age=10",
		"Expires":       headers.FormatHTTPDate(clk.Now().Add(24 * time.Hour)),
	}, "x")
	put(c, clk, "/x", resp)
	clk.Advance(time.Minute)
	if _, s := c.Get("/x"); s != Stale {
		t.Fatal("max-age must take precedence over Expires")
	}
}

func TestHeuristicFreshness(t *testing.T) {
	c, clk := newTestCache()
	// Last-Modified 10 days ago → heuristic lifetime = 1 day.
	resp := respWith(map[string]string{
		"Last-Modified": headers.FormatHTTPDate(clk.Now().Add(-10 * 24 * time.Hour)),
	}, "x")
	put(c, clk, "/x", resp)

	clk.Advance(12 * time.Hour)
	if _, s := c.Get("/x"); s != Fresh {
		t.Fatal("within heuristic lifetime should be fresh")
	}
	clk.Advance(13 * time.Hour)
	if _, s := c.Get("/x"); s != Stale {
		t.Fatal("past heuristic lifetime should be stale")
	}
}

func TestAgeHeaderReducesFreshness(t *testing.T) {
	c, clk := newTestCache()
	// Response already spent 3500s in an intermediary cache.
	resp := respWith(map[string]string{"Cache-Control": "max-age=3600", "Age": "3500"}, "x")
	put(c, clk, "/x", resp)
	clk.Advance(2 * time.Minute) // 3500 + 120 > 3600
	if _, s := c.Get("/x"); s != Stale {
		t.Fatal("Age header not accounted")
	}
}

func TestRefreshAfter304RenewsFreshness(t *testing.T) {
	c, clk := newTestCache()
	put(c, clk, "/x", respWith(map[string]string{"Cache-Control": "max-age=60", "Etag": `"v1"`}, "body"))
	clk.Advance(2 * time.Minute)
	if _, s := c.Get("/x"); s != Stale {
		t.Fatal("precondition: should be stale")
	}

	nm := &Response{StatusCode: 304, Header: make(http.Header)}
	nm.Header.Set("Cache-Control", "max-age=120")
	nm.Header.Set("Date", headers.FormatHTTPDate(clk.Now()))
	c.Refresh("/x", nm, clk.Now(), clk.Now())

	e, s := c.Get("/x")
	if s != Fresh {
		t.Fatalf("state after refresh = %v", s)
	}
	if string(e.Response.Body) != "body" {
		t.Fatal("refresh must keep the stored body")
	}
	if cc := e.Response.Header.Get("Cache-Control"); cc != "max-age=120" || e.lifetime != 2*time.Minute {
		t.Fatalf("refreshed Cache-Control %q, lifetime %v; want max-age=120, 2m0s", cc, e.lifetime)
	}
}

func TestRefreshUnknownURLIsNoop(t *testing.T) {
	c, clk := newTestCache()
	nm := &Response{StatusCode: 304, Header: make(http.Header)}
	c.Refresh("/ghost", nm, clk.Now(), clk.Now())
	if c.Len() != 0 {
		t.Fatal("refresh created an entry")
	}
}

func TestPutReplacesEntry(t *testing.T) {
	c, clk := newTestCache()
	put(c, clk, "/x", respWith(map[string]string{"Cache-Control": "max-age=60"}, "v1"))
	put(c, clk, "/x", respWith(map[string]string{"Cache-Control": "max-age=60"}, "v2"))
	e, _ := c.Get("/x")
	if string(e.Response.Body) != "v2" {
		t.Fatalf("body = %q", e.Response.Body)
	}
	if c.Len() != 1 {
		t.Fatalf("len = %d", c.Len())
	}
}

// TestPutSharesResponse: a stored entry keeps the response it was handed,
// header map and body array included, since no one writes either after it
// enters a Response. Refresh builds a new header, the 304 merge, shares
// neither the 304's map nor the replaced entry's, and keeps the body.
func TestPutSharesResponse(t *testing.T) {
	c, clk := newTestCache()
	resp := respWith(map[string]string{"Cache-Control": "max-age=60"}, "orig")
	put(c, clk, "/x", resp)
	e, _ := c.Get("/x")
	if e.Response != resp || !sameHeader(e.Response.Header, resp.Header) {
		t.Fatal("Put stored a copy of the response or its header")
	}
	if &e.Response.Body[0] != &resp.Body[0] {
		t.Fatal("Put copied the body")
	}

	nm := respWith(map[string]string{"Cache-Control": "max-age=120"}, "")
	nm.StatusCode = http.StatusNotModified
	c.Refresh("/x", nm, clk.Now(), clk.Now())
	f, _ := c.Peek("/x")
	if sameHeader(f.Response.Header, nm.Header) || sameHeader(f.Response.Header, resp.Header) {
		t.Fatal("Refresh's header is the 304's map or the replaced entry's")
	}
	if f.Response.Header.Get("Cache-Control") != "max-age=120" || e.Response.Header.Get("Cache-Control") != "max-age=60" {
		t.Fatal("Refresh did not merge into a header of its own")
	}
	if &f.Response.Body[0] != &resp.Body[0] {
		t.Fatal("Refresh copied the body")
	}
}

// sameHeader reports whether a and b are one map.
func sameHeader(a, b http.Header) bool {
	return reflect.ValueOf(a).UnsafePointer() == reflect.ValueOf(b).UnsafePointer()
}

func TestStateString(t *testing.T) {
	for s, want := range map[State]string{Miss: "miss", Fresh: "fresh", Stale: "stale", State(9): "invalid"} {
		if got := s.String(); got != want {
			t.Errorf("State(%d).String() = %q", s, got)
		}
	}
}

// Property: freshness is monotone — once an entry goes stale it never
// becomes fresh again without a Refresh or Put.
func TestFreshnessMonotoneQuick(t *testing.T) {
	f := func(maxAgeSecs uint16, steps []uint16) bool {
		clk := vclock.NewVirtual(vclock.Epoch)
		c := New(clk)
		resp := respWith(map[string]string{
			"Cache-Control": fmt.Sprintf("max-age=%d", maxAgeSecs),
		}, "x")
		put(c, clk, "/x", resp)
		seenStale := false
		for _, step := range steps {
			clk.Advance(time.Duration(step) * time.Second)
			_, s := c.Get("/x")
			if s == Stale {
				seenStale = true
			}
			if seenStale && s == Fresh {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
