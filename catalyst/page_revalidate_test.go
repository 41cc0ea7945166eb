package catalyst_test

import (
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"cachecatalyst/catalyst"
	"cachecatalyst/internal/vclock"
)

// pagePersonalities are the page's behaviours a held page's conditional
// re-fetch has to be exact against: the six of the probe timeline, plus two
// pages that must never be held because their header belongs to one client.
var pagePersonalities = map[personality]string{
	honours: "honours", ignores: "ignores", tagless: "tagless", weakTags: "weak",
	lying304: "lying304", unsolicited: "unsolicited304", setsCookie: "set-cookie", private: "private",
}

// serveOnce runs one request through h and returns what the client got.
func serveOnce(h http.Handler, method string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, "http://site.test/", nil))
	return rec
}

// TestRevalidatedPagesAreExact is the differential test of page revalidation:
// one middleware lives through the probe timeline's seeded steps — page
// edits, subresource bumps, deletes, redeploys, stylesheet edits — asking for
// the page conditionally whenever its hot index holds it, and after every step
// the body, Etag and X-Etag-Config it serves, and its answer to a HEAD, must
// be what a middleware that has never seen the site serves from unconditional
// GETs.
func TestRevalidatedPagesAreExact(t *testing.T) {
	for p, name := range pagePersonalities {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			runPageTimeline(t, p)
		})
	}
}

func runPageTimeline(t *testing.T, p personality) {
	const steps = 16
	site := newTimelineSite(p)
	rng := rand.New(rand.NewSource(int64(p) + 1))
	clk := vclock.NewVirtual(vclock.Epoch)
	subject, metrics := catalyst.TimelineMiddleware(site, clk, 0)
	// held reports whether the page may ever be held: anything else must
	// never be asked for conditionally.
	held := p == honours || p == ignores || p == lying304 || p == unsolicited

	for step := 0; step <= steps; step++ {
		site.observe(true)
		got := serveOnce(subject, "GET")
		site.mu.Lock()
		cookie := site.cookie
		site.mu.Unlock()
		head := serveOnce(subject, "HEAD")
		site.observe(false)
		want := serveOnce(catalyst.Middleware(site, catalyst.MiddlewareOptions{}), "GET")

		if got.Code != http.StatusOK || got.Body.String() != want.Body.String() {
			t.Fatalf("step %d: served %d with a %d-byte body, a fresh middleware %d with %d bytes",
				step, got.Code, got.Body.Len(), want.Code, want.Body.Len())
		}
		for _, k := range []string{"Etag", catalyst.HeaderName} {
			if g, w := got.Header().Get(k), want.Header().Get(k); g != w {
				t.Fatalf("step %d: %s = %q, a fresh middleware serves %q", step, k, g, w)
			}
		}
		if head.Code != http.StatusOK || head.Body.Len() != 0 {
			t.Fatalf("step %d: HEAD answered %d with a %d-byte body", step, head.Code, head.Body.Len())
		}
		for _, k := range []string{"Etag", "Content-Length", catalyst.HeaderName} {
			if g, w := head.Header().Get(k), got.Header().Get(k); g != w {
				t.Fatalf("step %d: HEAD %s = %q, GET's is %q", step, k, g, w)
			}
		}
		// A page whose header is one client's is never replayed: this
		// response's cookie is the one the handler set for this request.
		if p == setsCookie && got.Header().Get("Set-Cookie") != cookie {
			t.Fatalf("step %d: Set-Cookie %q, the handler set %q for this request", step, got.Header().Get("Set-Cookie"), cookie)
		}
		if p == private && got.Header().Get("Cache-Control") != "private" {
			t.Fatalf("step %d: Cache-Control %q, want the handler's private", step, got.Header().Get("Cache-Control"))
		}
		for _, req := range site.seen["/"] {
			if req.conditional && !held {
				t.Fatalf("step %d: the page was asked for conditionally, but a %s page must never be held", step, pagePersonalities[p])
			}
		}
		checkLies(t, step, site.seen)
		site.mutate(rng, step)
		clk.Advance(catalyst.TimelineStep)
	}

	revalidated, fetched := metrics.PageRevalidated.Load(), metrics.PageFetched.Load()
	switch {
	case p == honours || p == unsolicited || p == lying304:
		if revalidated <= fetched {
			t.Errorf("PageRevalidated = %d, PageFetched = %d: most navigations of a mostly unchanged page should be 304s", revalidated, fetched)
		}
	case revalidated != 0:
		t.Errorf("PageRevalidated = %d for a %s page", revalidated, pagePersonalities[p])
	}
	if p == honours && site.wasted != 0 {
		t.Errorf("the handler wrote %d body bytes for versions the middleware already held", site.wasted)
	}
}
