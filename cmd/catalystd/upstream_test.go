package main

import (
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cachecatalyst/catalyst"
	"cachecatalyst/internal/etag"
	"cachecatalyst/internal/leakcheck"
	"cachecatalyst/internal/telemetry"
)

// probeConcurrency is the middleware's fan-out width
// (the frozen probeConcurrency in catalyst/middleware.go).
const probeConcurrency = 8

// countingOrigin is an upstream serving one page with refs subresources
// (every tenth a stylesheet), each with a validator it honours, and counts
// the connections it accepts and sees closed.
func countingOrigin(t *testing.T, refs int) (srv *httptest.Server, accepted, closed *atomic.Int64) {
	t.Helper()
	var page strings.Builder
	page.WriteString("<html><head>")
	for i := 0; i < refs; i++ {
		if i%10 == 0 {
			fmt.Fprintf(&page, `<link rel="stylesheet" href="/a%02d.css">`, i)
		} else {
			fmt.Fprintf(&page, `<script src="/a%02d.js"></script>`, i)
		}
	}
	page.WriteString("</head><body>pool</body></html>")
	html := page.String()

	accepted, closed = new(atomic.Int64), new(atomic.Int64)
	srv = httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/" {
			w.Header().Set("Content-Type", "text/html")
			fmt.Fprint(w, html)
			return
		}
		body := strings.Repeat(r.URL.Path, 400) // ≈ 3 KB
		tag := etag.ForBytes([]byte(body)).String()
		w.Header().Set("Etag", tag)
		if r.Header.Get("If-None-Match") == tag {
			w.WriteHeader(http.StatusNotModified)
			return
		}
		if strings.HasSuffix(r.URL.Path, ".css") {
			w.Header().Set("Content-Type", "text/css")
		}
		fmt.Fprint(w, body)
	}))
	srv.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		switch s {
		case http.StateNew:
			accepted.Add(1)
		case http.StateClosed:
			closed.Add(1)
		}
	}
	srv.Start()
	t.Cleanup(srv.Close)
	return srv, accepted, closed
}

// transportGoroutines counts the goroutines net/http's client transport
// parks per pooled connection.
func transportGoroutines() int {
	buf := make([]byte, 1<<20)
	s := string(buf[:runtime.Stack(buf, true)])
	return strings.Count(s, "persistConn).readLoop") + strings.Count(s, "persistConn).writeLoop")
}

// TestProxyUpstreamPoolAndDrain pins the two properties of the upstream leg
// that the probe fan-out depends on. The idle pool covers the fan-out: over
// two renders of a 40-reference page, every probe expired in between, no
// upstream connection is closed before the drain — every one a burst opens
// is kept for the next, where net/http's default of two idle connections per
// host closes all but two after each burst and dials them again. (How many
// connections a render opens is not the bound: it follows how many probes
// the scheduler happens to overlap, and net/http may dial for a request an
// idle connection was about to serve; the cap on the total only catches a
// pool that is not being reused at all.) And the pool is the daemon's to
// close: after OnDrain no upstream socket, and neither of the two goroutines
// each one parks, is left behind.
func TestProxyUpstreamPoolAndDrain(t *testing.T) {
	leakcheck.Check(t)
	parked := transportGoroutines() // other tests' clients, if any
	const refs = 40
	up, accepted, closed := countingOrigin(t, refs)

	opts := testOpts()
	opts.Origin = up.URL
	reg := telemetry.NewRegistry()
	built, err := buildHandler(opts, reg)
	if err != nil {
		t.Fatal(err)
	}
	drain := sync.OnceFunc(built.OnDrain)
	defer drain()

	render := func() {
		t.Helper()
		rec := get(built.Handler, "site.test", "/")
		m, err := catalyst.DecodeMap(rec.Header().Get(catalyst.HeaderName))
		if err != nil || len(m) != refs {
			t.Fatalf("render: status %d, %d map entries (err %v), want %d", rec.Code, len(m), err, refs)
		}
	}
	render()
	time.Sleep(1100 * time.Millisecond) // the middleware's probe TTL is the frozen 1 s
	render()

	snap := reg.Snapshot()
	if got := snap.Counters["middleware.probe_revalidated"]; got != refs {
		t.Errorf("middleware.probe_revalidated = %d after the re-render, want %d", got, refs)
	}
	if got := closed.Load(); got != 0 {
		t.Errorf("origin saw %d of its %d connections closed before the drain, want 0: the idle pool does not hold the fan-out", got, accepted.Load())
	}
	if got, max := accepted.Load(), int64(2*probeConcurrency+2); got > max {
		t.Errorf("origin accepted %d connections for two renders of a %d-reference page, want ≤ %d", got, refs, max)
	}
	if transportGoroutines() == parked {
		t.Fatal("no pooled upstream connection before the drain: the test is not exercising the pool")
	}

	drain()
	deadline := time.Now().Add(2 * time.Second)
	for transportGoroutines() > parked && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if n := transportGoroutines(); n > parked {
		t.Errorf("%d transport goroutines (persistConn readLoop/writeLoop) still parked after OnDrain", n-parked)
	}
}
