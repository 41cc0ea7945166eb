package catalyst

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

// TestRenderCacheReusesUnchangedPage asserts the tentpole win: a hot page
// whose raw body does not change parses, injects and hashes exactly once —
// later requests hit the render cache — while the response stays identical.
func TestRenderCacheReusesUnchangedPage(t *testing.T) {
	h := tuned(innerSite(), MiddlewareOptions{}, withProbeTTL(time.Hour))
	m := h.(*middleware)

	first := httptest.NewRecorder()
	h.ServeHTTP(first, httptest.NewRequest("GET", "/", nil))
	if c := m.def.renders.Counters(); c.Loads != 1 {
		t.Fatalf("first render ran %d extractions, want 1", c.Loads)
	}

	second := httptest.NewRecorder()
	h.ServeHTTP(second, httptest.NewRequest("GET", "/", nil))
	c := m.def.renders.Counters()
	if c.Loads != 1 {
		t.Fatalf("unchanged page re-extracted: %d loads", c.Loads)
	}
	// The unchanged page is answered by its URL's entry (one memcmp, no
	// hashing).
	if m.def.renders.Counters().Hits == 0 {
		t.Fatal("second render did not hit the render cache")
	}
	if first.Body.String() != second.Body.String() {
		t.Fatal("cached render served a different body")
	}
	if first.Header().Get("Etag") != second.Header().Get("Etag") {
		t.Fatal("cached render served a different validator")
	}
	if first.Header().Get(HeaderName) != second.Header().Get(HeaderName) {
		t.Fatal("cached render served a different map")
	}

	// The first request slotted its map; the probes it names are unexpired
	// and unchanged, so later requests reuse it.
	third := httptest.NewRecorder()
	h.ServeHTTP(third, httptest.NewRequest("GET", "/", nil))
	if third.Header().Get(HeaderName) != first.Header().Get(HeaderName) {
		t.Fatal("reused encoding differs from the rebuilt one")
	}
	if m.metrics.EncodeReuses.Load() == 0 {
		t.Fatal("stable probes did not reuse the cached encoding")
	}
}

// TestRenderCacheKeysOnContent asserts the cache cannot serve stale HTML: a
// changed raw body is not the stored render's, so the new content is
// extracted, injected, and tagged afresh.
func TestRenderCacheKeysOnContent(t *testing.T) {
	var body atomic.Value
	body.Store(`<html><body><img src="/v1.png"></body></html>`)
	inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/" {
			w.Header().Set("Content-Type", "text/html")
			_, _ = io.WriteString(w, body.Load().(string))
			return
		}
		w.Header().Set("Content-Type", "image/png")
		_, _ = io.WriteString(w, r.URL.Path)
	})
	h := tuned(inner, MiddlewareOptions{}, withProbeTTL(time.Hour))

	r1 := httptest.NewRecorder()
	h.ServeHTTP(r1, httptest.NewRequest("GET", "/", nil))

	body.Store(`<html><body><img src="/v2.png"></body></html>`)
	r2 := httptest.NewRecorder()
	h.ServeHTTP(r2, httptest.NewRequest("GET", "/", nil))

	if !strings.Contains(r2.Body.String(), "/v2.png") {
		t.Fatalf("stale body served: %q", r2.Body.String())
	}
	if r1.Header().Get("Etag") == r2.Header().Get("Etag") {
		t.Fatal("changed page kept its validator")
	}
	m, err := DecodeMap(r2.Header().Get(HeaderName))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := m["/v2.png"]; !ok {
		t.Fatalf("map built from stale refs: %v", m)
	}
}

// TestRenderCacheDisabled asserts MaxRenderBytes < 0 restores the
// uncached pipeline with identical responses.
func TestRenderCacheDisabled(t *testing.T) {
	h := tuned(innerSite(), MiddlewareOptions{MaxRenderBytes: -1}, withProbeTTL(time.Hour))
	m := h.(*middleware)
	if m.def.renders != nil {
		t.Fatal("render cache allocated despite MaxRenderBytes < 0")
	}
	cached := tuned(innerSite(), MiddlewareOptions{}, withProbeTTL(time.Hour))
	for i := 0; i < 2; i++ {
		a, b := httptest.NewRecorder(), httptest.NewRecorder()
		h.ServeHTTP(a, httptest.NewRequest("GET", "/", nil))
		cached.ServeHTTP(b, httptest.NewRequest("GET", "/", nil))
		if a.Body.String() != b.Body.String() || a.Header().Get("Etag") != b.Header().Get("Etag") ||
			a.Header().Get(HeaderName) != b.Header().Get(HeaderName) {
			t.Fatalf("request %d: cached and uncached responses diverge", i)
		}
	}
}

// TestEncodeReuseInvalidatedByProbeChange asserts the evidence check: a
// subresource changing under an expired probe must surface in the very next
// map even though the page's render entry (and its slotted map) is hot.
func TestEncodeReuseInvalidatedByProbeChange(t *testing.T) {
	var asset atomic.Value
	asset.Store("v1")
	inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/" {
			w.Header().Set("Content-Type", "text/html")
			_, _ = io.WriteString(w, `<html><body><img src="/a.png"></body></html>`)
			return
		}
		w.Header().Set("Content-Type", "image/png")
		_, _ = io.WriteString(w, asset.Load().(string))
	})
	h := tuned(inner, MiddlewareOptions{}, withProbeTTL(time.Millisecond))

	r1 := httptest.NewRecorder()
	h.ServeHTTP(r1, httptest.NewRequest("GET", "/", nil))
	m1, _ := DecodeMap(r1.Header().Get(HeaderName))

	asset.Store("v2")
	time.Sleep(5 * time.Millisecond) // let the probe expire

	r2 := httptest.NewRecorder()
	h.ServeHTTP(r2, httptest.NewRequest("GET", "/", nil))
	m2, err := DecodeMap(r2.Header().Get(HeaderName))
	if err != nil {
		t.Fatal(err)
	}
	if m1["/a.png"] == m2["/a.png"] {
		t.Fatal("map still advertises the stale subresource tag")
	}
	if m2["/a.png"] != TagForBytes([]byte("v2")) {
		t.Fatalf("map tag %v does not match the live content", m2["/a.png"])
	}
}

// TestRenderFanOutRaceStaysConsistent is the -race acceptance test for the
// two-phase pipeline: many parallel HTML renders while the inner body
// mutates concurrently must never produce a response whose Etag disagrees
// with the body it accompanies or whose map fails to decode, and the cache
// bookkeeping must balance once the dust settles.
func TestRenderFanOutRaceStaysConsistent(t *testing.T) {
	var version atomic.Int64
	inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/" {
			v := version.Load()
			w.Header().Set("Content-Type", "text/html")
			fmt.Fprintf(w, `<html><body><img src="/img/%d.png"><img src="/shared.png"></body></html>`, v)
			return
		}
		w.Header().Set("Content-Type", "image/png")
		_, _ = io.WriteString(w, r.URL.Path)
	})
	h := tuned(inner, MiddlewareOptions{}, withProbeTTL(time.Millisecond), withProbeConcurrency(4))
	m := h.(*middleware)

	const goroutines = 8
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				version.Add(1)
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest("GET", "/", nil))
				if rec.Code != http.StatusOK {
					t.Errorf("status = %d", rec.Code)
					return
				}
				// The served body and its validator must come from the
				// same render — a torn pair means two requests shared
				// mutable state they must not share.
				want := TagForBytes(rec.Body.Bytes()).String()
				if got := rec.Header().Get("Etag"); got != want {
					t.Errorf("Etag %s does not validate the served body (%s)", got, want)
					return
				}
				if _, err := DecodeMap(rec.Header().Get(HeaderName)); err != nil {
					t.Errorf("undecodable map: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()

	if err := m.def.renders.Audit(); err != nil {
		t.Errorf("render cache accounting drifted: %v", err)
	}
	if err := m.def.probes.Audit(); err != nil {
		t.Errorf("probe cache accounting drifted: %v", err)
	}
	// However many bodies raced through the one URL, and in whatever order
	// their flights landed, the store keys by URL: one entry, for "/".
	if keys := m.def.renders.Keys(); len(keys) != 1 || keys[0] != "/" {
		t.Errorf("render cache holds %q after the race, want the one page", keys)
	}
}

// TestRenderCacheHoldsOneEntryPerPage serves successive bodies of one held
// URL: the store keeps one entry for it, the render of the current body,
// charged for that render alone — no dead version of the page waits for
// eviction beside it.
func TestRenderCacheHoldsOneEntryPerPage(t *testing.T) {
	const versions = 8
	var version atomic.Int64
	inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			w.Header().Set("Content-Type", "image/png")
			_, _ = io.WriteString(w, r.URL.Path)
			return
		}
		v := version.Load()
		w.Header().Set("Content-Type", "text/html")
		w.Header().Set("Etag", fmt.Sprintf(`"page-v%d"`, v))
		fmt.Fprintf(w, `<html><head><title>v%d</title></head><body><img src="/a.png"></body></html>`, v)
	})
	h := tuned(inner, MiddlewareOptions{}, withProbeTTL(time.Hour))
	m := h.(*middleware)
	var last *httptest.ResponseRecorder
	for i := 0; i < versions; i++ {
		version.Add(1)
		last = httptest.NewRecorder()
		h.ServeHTTP(last, httptest.NewRequest("GET", "/", nil))
	}
	if keys := m.def.renders.Keys(); len(keys) != 1 || keys[0] != "/" {
		t.Fatalf("%d bodies of one page left %d entries (%q), want 1", versions, len(keys), keys)
	}
	ent, _ := m.def.renders.Peek("/")
	if string(ent.Body) != last.Body.String() || ent.inm == nil || ent.tag.Opaque != fmt.Sprintf("page-v%d", versions) {
		t.Fatalf("the entry is not the held render of the current body (held %v, tag %q)", ent.inm != nil, ent.tag.Opaque)
	}
	if got, want := m.def.renders.Bytes(), renderEntrySize("/", ent); got != want {
		t.Fatalf("render cache charged %d bytes, the current render costs %d", got, want)
	}
	if c := m.def.renders.Counters(); c.Loads != versions {
		t.Fatalf("%d renders built for %d bodies", c.Loads, versions)
	}
}

// TestJSONStringLenMatchesMarshal pins the map encoder's keys to
// json.Marshal's bytes for every string, including the escaping edge cases
// the default HTML-escaping encoder has: the JSON a Service Worker parses,
// and the unit the map bound cuts an encoding at (encodeMap).
func TestJSONStringLenMatchesMarshal(t *testing.T) {
	check := func(s string) bool {
		b, err := json.Marshal(s)
		if err != nil {
			return false
		}
		enc := ETagMap{s: Tag{Opaque: "v"}}.Encode()
		return enc == "{"+string(b)+`:"\"v\""}`
	}
	for _, s := range []string{
		"",
		"/plain/path.css",
		`quote " backslash \ done`,
		"tabs\tnewlines\nreturns\r",
		"low controls \x00\x01\x1f",
		"shorthand escapes \b and \f",
		"html <b>&amp;</b>",
		"line seps \u2028 and \u2029",
		"snowman ☃ and emoji \U0001F600",
		"invalid \xff\xfe bytes",
		"truncated rune \xe2\x82",
		string([]byte{0xed, 0xa0, 0x80}), // surrogate half, invalid UTF-8
	} {
		if !check(s) {
			b, _ := json.Marshal(s)
			t.Errorf("key %q encodes as %s, marshal is %s", s, ETagMap{s: Tag{Opaque: "v"}}.Encode(), b)
		}
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}
