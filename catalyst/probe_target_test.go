package catalyst

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync/atomic"
	"testing"

	"cachecatalyst/internal/telemetry"
)

// TestHostileSubresourceURLKeepsServing is the regression test for the
// probe-target crash: a subresource URL net/http cannot put on a request
// line used to panic inside a fan-out worker goroutine, where no recover
// applies, and take the whole process down. Served over a real socket with
// enough references that the fan-out actually spawns workers.
func TestHostileSubresourceURLKeepsServing(t *testing.T) {
	const page = `<html><body>
<img src="/a.png?x=1 2"><img src="/b.png?"><img src="/ok.png"><img src="/c.png?q=%zz">
</body></html>`
	var hostileProbes atomic.Int64
	inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/" {
			w.Header().Set("Content-Type", "text/html")
			_, _ = io.WriteString(w, page)
			return
		}
		if r.URL.Path == "/a.png" {
			// What an upstream answers to "GET /a.png?x=1 2 HTTP/1.1".
			hostileProbes.Add(1)
			http.Error(w, "malformed request line", http.StatusBadRequest)
			return
		}
		w.Header().Set("Content-Type", "image/png")
		_, _ = io.WriteString(w, r.URL.Path)
	})
	reg := telemetry.NewRegistry()
	srv := httptest.NewServer(Middleware(inner, MiddlewareOptions{Telemetry: reg}))
	defer srv.Close()

	for visit := 0; visit < 2; visit++ {
		resp, err := http.Get(srv.URL + "/")
		if err != nil {
			t.Fatalf("visit %d: %v", visit, err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("visit %d: status %d", visit, resp.StatusCode)
		}
		m, err := DecodeMap(resp.Header.Get(HeaderName))
		if err != nil {
			t.Fatalf("visit %d: %v", visit, err)
		}
		if _, ok := m["/ok.png"]; !ok {
			t.Fatalf("visit %d: healthy sibling missing from the map: %v", visit, m)
		}
		if _, ok := m["/a.png?x=1 2"]; ok {
			t.Fatalf("visit %d: failed probe advertised in the map: %v", visit, m)
		}
	}
	// The failure is cached for the TTL like any other: the second visit
	// did not re-probe it.
	if n := hostileProbes.Load(); n != 1 {
		t.Errorf("hostile key probed %d times across two visits within one TTL, want 1", n)
	}
}

// TestProbeFlightRecoversPanics pins the second line of defence: a panic
// anywhere in the probe flight — outside the inner handler, which has its
// own recover — becomes a failed probe and is counted.
func TestProbeFlightRecoversPanics(t *testing.T) {
	reg := telemetry.NewRegistry()
	m := Middleware(http.NotFoundHandler(), MiddlewareOptions{Telemetry: reg}).(*middleware)
	// A nil serving request is the one way to make the flight itself fault.
	pr := m.probe(&m.def, "/x.png", nil, context.Background())
	if pr.ok {
		t.Fatalf("panicked probe reported ok: %+v", pr)
	}
	if n := reg.Snapshot().Counters["middleware.panics_recovered"]; n != 1 {
		t.Fatalf("middleware.panics_recovered = %d, want 1", n)
	}
	if _, cached := m.def.probes.Peek("/x.png"); !cached {
		t.Fatal("failed probe was not cached for the TTL")
	}
}

// FuzzProbeTarget feeds arbitrary subresource keys — they come out of
// upstream HTML — to the probe: it must never panic, and a key that is not
// a valid request target must be a failed probe that never reaches the
// inner handler.
func FuzzProbeTarget(f *testing.F) {
	for _, seed := range []string{
		"/ok.png",
		"/a.png?x=1 2", // space in query
		"/b.png?q=%zz", // bad escape in query
		"/%zz.png",     // bad escape in path
		"/c.png?",      // bare ?
		"?",
		"",
		"relative.png",
		"/nul\x00byte",
		"/long?" + strings.Repeat("k=v&", 2560), // a 10 KB key
	} {
		f.Add(seed)
	}
	var reached atomic.Value // last key the inner handler saw
	inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		reached.Store(r.RequestURI)
		_, _ = io.WriteString(w, "body")
	})
	via := httptest.NewRequest(http.MethodGet, "/", nil)
	f.Fuzz(func(t *testing.T, key string) {
		reached.Store("")
		m := Middleware(inner, MiddlewareOptions{}).(*middleware)
		pr := m.probe(&m.def, key, via, context.Background())
		if n := m.metrics.PanicsRecovered.Load(); n != 0 {
			t.Fatalf("probe of %q panicked (recovered %d)", key, n)
		}
		if _, err := url.ParseRequestURI(key); err != nil {
			if pr.ok || reached.Load() != "" {
				t.Fatalf("unparseable key %q: ok=%v, inner handler saw %q", key, pr.ok, reached.Load())
			}
		} else if !pr.ok || reached.Load() != key {
			t.Fatalf("valid key %q: ok=%v, inner handler saw %q", key, pr.ok, reached.Load())
		}
	})
}
