package catalyst

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"testing/fstest"

	"cachecatalyst/internal/telemetry"
)

func metricsWorld(t *testing.T) (string, func()) {
	t.Helper()
	fsys := fstest.MapFS{
		"index.html": {Data: []byte(`<img src="/p.png">`)},
		"p.png":      {Data: []byte("PNG")},
	}
	srv, err := NewServer(fsys, ServerOptions{Policy: DefaultPolicy, AccessLogSize: 32, Telemetry: telemetry.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(WithMetricsOptions(srv, MetricsOptions{}))
	return ts.URL, ts.Close
}

func TestMetricsEndpoint(t *testing.T) {
	base, done := metricsWorld(t)
	defer done()

	// Generate some traffic.
	for _, p := range []string{"/index.html", "/p.png", "/nope.gif"} {
		resp, err := http.Get(base + p)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}

	resp, err := http.Get(base + MetricsPath)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content type = %q", ct)
	}
	var snap struct {
		Telemetry struct {
			Counters map[string]int64 `json:"counters"`
		} `json:"telemetry"`
		Recent []struct {
			Path   string `json:"path"`
			Status int    `json:"status"`
		} `json:"recent"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if c := snap.Telemetry.Counters; c["server.requests"] != 3 || c["server.not_found"] != 1 || c["server.maps_built"] != 1 {
		t.Fatalf("counters = %v", c)
	}
	if len(snap.Recent) != 3 {
		t.Fatalf("recent = %d entries", len(snap.Recent))
	}
	if snap.Recent[2].Path != "/nope.gif" || snap.Recent[2].Status != 404 {
		t.Fatalf("recent[2] = %+v", snap.Recent[2])
	}
}

func TestMetricsEndpointNotCached(t *testing.T) {
	base, done := metricsWorld(t)
	defer done()
	resp, err := http.Get(base + MetricsPath)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if cc := resp.Header.Get("Cache-Control"); cc != "no-store" {
		t.Fatalf("Cache-Control = %q", cc)
	}
}

// TestClientConcurrentGets exercises the client's locking under the race
// detector: many goroutines share one client against one server.
func TestClientConcurrentGets(t *testing.T) {
	fsys := fstest.MapFS{
		"index.html": {Data: []byte(`<link rel="stylesheet" href="/s.css"><img src="/p.png">`)},
		"s.css":      {Data: []byte("body{}")},
		"p.png":      {Data: []byte("PNG")},
	}
	srv, err := NewServer(fsys, ServerOptions{Policy: DefaultPolicy})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	c := NewClient(nil)
	paths := []string{"/index.html", "/s.css", "/p.png"}
	var wg sync.WaitGroup
	var hits atomic.Int64
	for i := 0; i < 24; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 10; j++ {
				resp, err := c.Get(ts.URL + paths[(i+j)%len(paths)])
				if err != nil {
					t.Error(err)
					return
				}
				if resp.StatusCode != 200 {
					t.Errorf("status %d", resp.StatusCode)
					return
				}
				if resp.Source == "cache" {
					hits.Add(1)
				}
			}
		}(i)
	}
	wg.Wait()
	if hits.Load() == 0 {
		t.Error("no local hits across 240 concurrent gets")
	}
}
