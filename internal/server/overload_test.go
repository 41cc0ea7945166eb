package server

import (
	"sync"
	"testing"
	"time"

	"cachecatalyst/internal/core"
	"cachecatalyst/internal/leakcheck"
	"cachecatalyst/internal/telemetry"
)

// slowContent wraps a Content so that subresource lookups block until
// released, pinning a map resolution inside the gate for as long as the
// test wants.
type slowContent struct {
	Content
	mu      sync.Mutex
	block   chan struct{} // nil: no blocking
	entered chan struct{}
}

func (c *slowContent) Get(p string) (*Resource, bool) {
	c.mu.Lock()
	block := c.block
	c.mu.Unlock()
	if block != nil && p == "/a.css" {
		c.entered <- struct{}{}
		<-block
	}
	return c.Content.Get(p)
}

// TestServerShedsMapUnderGate: with one resolution slot occupied, the
// next HTML request ships without a map (and counts as a shed) instead
// of queueing — a degraded-but-valid 200, never an error.
func TestServerShedsMapUnderGate(t *testing.T) {
	leakcheck.Check(t)
	content := &slowContent{Content: buildSite(), entered: make(chan struct{}, 8)}
	reg := telemetry.NewRegistry()
	s := New(content, Options{
		Catalyst:    true,
		MaxInflight: 1,
		Telemetry:   reg,
	})

	block := make(chan struct{})
	content.mu.Lock()
	content.block = block
	content.mu.Unlock()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); get(t, s, "/index.html", nil) }()
	<-content.entered // the first request holds the only slot

	rec := get(t, s, "/index.html", nil)
	if rec.Code != 200 {
		t.Fatalf("shed request status = %d, want 200", rec.Code)
	}
	if rec.Header().Get(core.HeaderName) != "" {
		t.Fatal("shed request still carries a map")
	}
	if got := s.Metrics.MapSheds.Load(); got != 1 {
		t.Fatalf("MapSheds = %d", got)
	}
	if rec.Header().Get("Etag") == "" {
		t.Fatal("shed response lost its validator")
	}

	close(block)
	content.mu.Lock()
	content.block = nil
	content.mu.Unlock()
	wg.Wait()

	// The slot freed: the next request resolves a full map again.
	rec = get(t, s, "/index.html", nil)
	if rec.Header().Get(core.HeaderName) == "" {
		t.Fatal("gate did not recover after release")
	}
	if got := reg.Snapshot().Counters["server.map_sheds"]; got != 1 {
		t.Fatalf("registry map_sheds = %d", got)
	}
}

// TestServerBudgetBoundsResolution: an exhausted request budget stops the
// probe fan-out — the page still serves 200, with whatever map (possibly
// none) was affordable.
func TestServerBudgetBoundsResolution(t *testing.T) {
	s := New(buildSite(), Options{Catalyst: true, RequestBudget: time.Nanosecond})
	rec := get(t, s, "/index.html", nil)
	if rec.Code != 200 {
		t.Fatalf("status = %d", rec.Code)
	}
	m, err := core.DecodeMap(rec.Header().Get(core.HeaderName))
	if err != nil {
		t.Fatalf("map undecodable: %v", err)
	}
	if len(m) != 0 {
		t.Fatalf("exhausted budget still resolved %d entries", len(m))
	}
	// A generous budget resolves the full map.
	s2 := New(buildSite(), Options{Catalyst: true, RequestBudget: time.Minute})
	rec = get(t, s2, "/index.html", nil)
	m, err = core.DecodeMap(rec.Header().Get(core.HeaderName))
	if err != nil || len(m) == 0 {
		t.Fatalf("generous budget: map=%v err=%v", m, err)
	}
}
