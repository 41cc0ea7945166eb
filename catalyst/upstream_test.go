package catalyst

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"cachecatalyst/internal/cluster"
	"cachecatalyst/internal/leakcheck"
	"cachecatalyst/internal/telemetry"
	"cachecatalyst/internal/tenant"
)

// TestNewEdge pins what NewEdge wires beyond the routing catalystd's
// TestBuildHandlerMultiTenant checks: a health checker per tenant whose
// breaker trips on that tenant's failing origin alone, gossip to the
// configured peer, and a drain that leaves no goroutine behind.
func TestNewEdge(t *testing.T) {
	leakcheck.Check(t)
	var failing atomic.Bool
	origin := func(name string, fails bool) *httptest.Server {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if fails && failing.Load() {
				http.Error(w, "down", http.StatusInternalServerError)
				return
			}
			if r.URL.Path == "/app.css" {
				w.Header().Set("Content-Type", "text/css")
				fmt.Fprintf(w, "/* %s */", name)
				return
			}
			w.Header().Set("Content-Type", "text/html")
			fmt.Fprintf(w, `<html><head><link rel="stylesheet" href="/app.css"></head><body>%s</body></html>`, name)
		}))
		t.Cleanup(srv.Close)
		return srv
	}
	var announced atomic.Int64
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == cluster.HotMapPath && r.Method == http.MethodPost {
			announced.Add(1)
		}
	}))
	t.Cleanup(peer.Close)

	cfg := &tenant.Config{
		Tenants: []tenant.TenantConfig{
			{Name: "alpha", Upstream: origin("alpha", true).URL, Hosts: []string{"alpha.test"}, HealthInterval: tenant.Duration(100 * time.Millisecond)},
			{Name: "beta", Upstream: origin("beta", false).URL, Hosts: []string{"beta.test"}, HealthInterval: tenant.Duration(100 * time.Millisecond)},
		},
		Cluster: tenant.ClusterConfig{Instance: "edge0", Peers: []string{peer.URL}},
	}
	reg := telemetry.NewRegistry()
	h, drain, err := NewEdge(cfg, MiddlewareOptions{Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer drain()

	if rec := tenantGet(h, "alpha.test", "/"); rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "<body>alpha</body>") {
		t.Fatalf("alpha: %d %q", rec.Code, rec.Body.String())
	}

	// alpha's origin fails its health probes: its breaker opens, beta's
	// stays shut, and the page's first build has been gossiped.
	failing.Store(true)
	deadline := time.Now().Add(5 * time.Second)
	for {
		c := reg.Snapshot().Counters
		if c["tenant.alpha.origin.trips"] > 0 && c["tenant.beta.health.checks"] > 0 && announced.Load() > 0 {
			if c["tenant.beta.origin.trips"] != 0 {
				t.Fatalf("beta's breaker moved with alpha's origin: %v", c)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("alpha's breaker never tripped or nothing was gossiped (%d announcements): %v", announced.Load(), c)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
