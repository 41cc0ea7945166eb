package catalyst

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cachecatalyst/internal/etag"
	"cachecatalyst/internal/vclock"
)

// countingHandler wraps a handler and counts how many times it runs.
type countingHandler struct {
	calls atomic.Int64
	inner http.Handler
}

func (c *countingHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	c.calls.Add(1)
	c.inner.ServeHTTP(w, r)
}

// TestNonHTMLExecutesInnerHandlerOnce is the acceptance test for the
// streaming write path: a non-HTML request through the middleware must run
// the inner handler exactly once (the old record-then-replay path ran it
// twice) and must deliver the handler's response unchanged.
func TestNonHTMLExecutesInnerHandlerOnce(t *testing.T) {
	counted := &countingHandler{inner: innerSite()}
	h := Middleware(counted, MiddlewareOptions{})

	for _, path := range []string{"/logo.png", "/api/data", "/style.css"} {
		counted.calls.Store(0)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		if rec.Code != 200 {
			t.Fatalf("%s: status = %d", path, rec.Code)
		}
		if got := counted.calls.Load(); got != 1 {
			t.Errorf("%s: inner handler ran %d times, want exactly 1", path, got)
		}
		if rec.Header().Get(HeaderName) != "" {
			t.Errorf("%s: non-HTML response grew an ETag map", path)
		}
	}
}

// streamProbe is a ResponseWriter that records, at flush time, how many
// body bytes have already reached it — evidence of streaming.
type streamProbe struct {
	header        http.Header
	status        int
	body          bytes.Buffer
	bytesAtFlush  []int
	flushes       int
	wroteHeaderAt int // body length when WriteHeader fired (should be 0)
}

func newStreamProbe() *streamProbe { return &streamProbe{header: make(http.Header)} }

func (p *streamProbe) Header() http.Header { return p.header }
func (p *streamProbe) WriteHeader(code int) {
	p.status = code
	p.wroteHeaderAt = p.body.Len()
}
func (p *streamProbe) Write(b []byte) (int, error) { return p.body.Write(b) }
func (p *streamProbe) Flush() {
	p.flushes++
	p.bytesAtFlush = append(p.bytesAtFlush, p.body.Len())
}

// TestNonHTMLStreamsThroughMiddleware proves the body is not buffered: the
// inner handler writes a chunk, flushes, and *observes from inside the
// handler* that the chunk already reached the client-side writer before the
// handler returned.
func TestNonHTMLStreamsThroughMiddleware(t *testing.T) {
	probe := newStreamProbe()
	var seenMidHandler int // bytes visible at dst between the two chunks

	inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/octet-stream")
		_, _ = w.Write([]byte("chunk-one:"))
		w.(http.Flusher).Flush()
		seenMidHandler = probe.body.Len()
		_, _ = w.Write([]byte("chunk-two"))
	})
	h := Middleware(inner, MiddlewareOptions{})
	h.ServeHTTP(probe, httptest.NewRequest("GET", "/blob", nil))

	if probe.status != 200 {
		t.Fatalf("status = %d", probe.status)
	}
	if got := probe.body.String(); got != "chunk-one:chunk-two" {
		t.Fatalf("body = %q", got)
	}
	if seenMidHandler != len("chunk-one:") {
		t.Fatalf("dst saw %d bytes mid-handler, want %d — response was buffered, not streamed",
			seenMidHandler, len("chunk-one:"))
	}
	if probe.flushes == 0 {
		t.Fatal("Flush was not forwarded on the streaming path")
	}
}

// TestPassthroughConditionalGet verifies the sniffing writer restores the
// conditional semantics the middleware strips from the inner request: a 200
// non-HTML response whose validator matches If-None-Match goes out as a
// body-less 304.
func TestPassthroughConditionalGet(t *testing.T) {
	tag := etag.ForBytes([]byte("PNG-LOGO"))
	inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get("If-None-Match") != "" {
			t.Error("conditional header leaked to the inner handler")
		}
		w.Header().Set("Content-Type", "image/png")
		w.Header().Set("Etag", tag.String())
		_, _ = w.Write([]byte("PNG-LOGO"))
	})
	h := Middleware(inner, MiddlewareOptions{})

	req := httptest.NewRequest("GET", "/logo.png", nil)
	req.Header.Set("If-None-Match", tag.String())
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusNotModified {
		t.Fatalf("status = %d, want 304", rec.Code)
	}
	if rec.Body.Len() != 0 {
		t.Fatalf("304 carried a body: %q", rec.Body.String())
	}
	if rec.Header().Get("Etag") != tag.String() {
		t.Fatal("304 lost the validator")
	}

	// A non-matching validator must still get the full entity.
	req = httptest.NewRequest("GET", "/logo.png", nil)
	req.Header.Set("If-None-Match", `"different"`)
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != 200 || rec.Body.String() != "PNG-LOGO" {
		t.Fatalf("mismatch: status=%d body=%q", rec.Code, rec.Body.String())
	}
}

func TestPassthroughIfModifiedSince(t *testing.T) {
	lm := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "image/png")
		w.Header().Set("Last-Modified", lm.Format(http.TimeFormat))
		_, _ = w.Write([]byte("PNG"))
	})
	h := Middleware(inner, MiddlewareOptions{})

	req := httptest.NewRequest("GET", "/logo.png", nil)
	req.Header.Set("If-Modified-Since", lm.Format(http.TimeFormat))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusNotModified {
		t.Fatalf("status = %d, want 304", rec.Code)
	}

	req = httptest.NewRequest("GET", "/logo.png", nil)
	req.Header.Set("If-Modified-Since", lm.Add(-time.Hour).Format(http.TimeFormat))
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != 200 {
		t.Fatalf("older If-Modified-Since: status = %d, want 200", rec.Code)
	}
}

// TestWorkerScriptConditionalGet is the regression test for the
// worker-script handler ignoring If-None-Match: the script is immutable per
// build, so a revalidation must answer 304 with no body.
func TestWorkerScriptConditionalGet(t *testing.T) {
	h := Middleware(innerSite(), MiddlewareOptions{})

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", WorkerPath, nil))
	if rec.Code != 200 || rec.Body.String() != WorkerScript {
		t.Fatalf("first fetch: status=%d", rec.Code)
	}
	tag := rec.Header().Get("Etag")
	if tag == "" {
		t.Fatal("worker script served without a validator")
	}

	req := httptest.NewRequest("GET", WorkerPath, nil)
	req.Header.Set("If-None-Match", tag)
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusNotModified {
		t.Fatalf("revalidation: status = %d, want 304", rec.Code)
	}
	if rec.Body.Len() != 0 {
		t.Fatal("304 carried the script body")
	}

	req = httptest.NewRequest("GET", WorkerPath, nil)
	req.Header.Set("If-None-Match", `"stale-tag"`)
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != 200 || rec.Body.String() != WorkerScript {
		t.Fatalf("stale validator: status=%d", rec.Code)
	}

	req = httptest.NewRequest("HEAD", WorkerPath, nil)
	req.Header.Set("If-None-Match", tag)
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusNotModified {
		t.Fatalf("HEAD revalidation: status = %d, want 304", rec.Code)
	}
}

// TestProbeSingleflight is the acceptance test for probe collapsing: many
// concurrent renders of a page that references one expired subresource must
// produce exactly one inner-handler probe of that subresource.
func TestProbeSingleflight(t *testing.T) {
	var assetCalls atomic.Int64
	release := make(chan struct{})
	mux := http.NewServeMux()
	mux.HandleFunc("/{$}", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/html")
		_, _ = io.WriteString(w, `<html><head><script src="/slow.js"></script></head></html>`)
	})
	mux.HandleFunc("/slow.js", func(w http.ResponseWriter, r *http.Request) {
		assetCalls.Add(1)
		<-release // hold the probe open so every render piles onto the flight
		w.Header().Set("Content-Type", "text/javascript")
		_, _ = io.WriteString(w, "js()")
	})
	h := tuned(mux, MiddlewareOptions{}, withStoppedClock())

	const renders = 12
	var wg sync.WaitGroup
	codes := make([]int, renders)
	for i := 0; i < renders; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("GET", "/", nil))
			codes[i] = rec.Code
		}(i)
	}
	time.Sleep(50 * time.Millisecond) // let every render reach the probe
	close(release)
	wg.Wait()

	if got := assetCalls.Load(); got != 1 {
		t.Fatalf("subresource probed %d times across %d concurrent renders, want 1", got, renders)
	}
	for i, c := range codes {
		if c != 200 {
			t.Fatalf("render %d: status = %d", i, c)
		}
	}
}

// TestCapMapBytesMatchesNaive cross-checks the map bound every X-Etag-Config
// the middleware writes goes through (encodeMap), which cuts the
// full encoding at an entry boundary, against the obvious
// re-encode-per-drop reference over a large map with escape-heavy and
// multi-byte paths.
func TestCapMapBytesMatchesNaive(t *testing.T) {
	build := func() ETagMap {
		m := ETagMap{}
		for i := 0; i < 400; i++ {
			m[fmt.Sprintf("/assets/deep/dir-%03d/file-%03d.js", i%37, i)] = etag.ForBytes([]byte{byte(i), byte(i >> 8)})
		}
		m[`/odd/"quoted".css`] = etag.ForBytes([]byte("q"))
		m["/odd/ünïcode-päth.png"] = etag.ForBytes([]byte("u"))
		m["/odd/back\\slash.js"] = etag.ForBytes([]byte("b"))
		return m
	}

	naive := func(m ETagMap, max int) ETagMap {
		for len(m.Encode()) > max {
			paths := make([]string, 0, len(m))
			for p := range m {
				paths = append(paths, p)
			}
			sort.Strings(paths)
			delete(m, paths[len(paths)-1])
		}
		return m
	}

	full := len(build().Encode())
	for _, max := range []int{full, full - 1, full / 2, 512, 64, 10} {
		got := build()
		enc, dropped := encodeMap(got, max)
		want := naive(build(), max)
		if enc != got.Encode() || dropped != len(build())-len(got) {
			t.Fatalf("max=%d: returned %d bytes and %d dropped, the kept map encodes to %d bytes and lost %d",
				max, len(enc), dropped, len(got.Encode()), len(build())-len(got))
		}
		if len(got) != len(want) {
			t.Fatalf("max=%d: incremental kept %d entries, naive kept %d", max, len(got), len(want))
		}
		for p, tag := range want {
			if got[p] != tag {
				t.Fatalf("max=%d: maps diverge at %q", max, p)
			}
		}
		if enc := got.Encode(); len(enc) > max && len(got) > 0 {
			t.Fatalf("max=%d: trimmed map still encodes to %d bytes", max, len(enc))
		}
	}
}

// TestMiddlewareParallelStress drives one middleware with a mixed workload
// from many goroutines; run under -race it pins the probe store, metrics,
// and sniffing writer as concurrency-safe.
func TestMiddlewareParallelStress(t *testing.T) {
	t.Parallel()
	clk := vclock.NewVirtual(vclock.Epoch)
	h := tuned(innerSite(), MiddlewareOptions{},
		withClock(clk),
		withMaxProbeEntries(2), // fewer than the page's 4 subresources: constant eviction
	)
	paths := []string{"/", "/logo.png", "/api/data", "/style.css", WorkerPath, "/missing"}

	var wg sync.WaitGroup
	for g := 0; g < 12; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				path := paths[(g+i)%len(paths)]
				clk.Advance(probeTTL) // force constant re-probing
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
				want := 200
				if path == "/missing" {
					want = 404
				}
				if rec.Code != want {
					t.Errorf("%s: status = %d, want %d", path, rec.Code, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if h.(*middleware).def.probes.Counters().Evictions == 0 {
		t.Error("stress with a 2-entry probe cache evicted nothing")
	}
}
