package harness

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"time"

	"cachecatalyst/catalyst"
	"cachecatalyst/internal/cluster"
	"cachecatalyst/internal/telemetry"
	"cachecatalyst/internal/tenant"
)

// ClusterCell is a real-socket multi-instance cell: cellInstances edge
// instances — each the daemon's own -config stack, catalyst.NewEdge (tenant
// resolver, middleware, per-tenant health-checked breakers, hot-map
// exchange) — fronting cellTenants shared tenant origins, with a
// consistent-hash ring deciding which instance owns each page. It is the
// cluster counterpart of the single-process measurement worlds: where World
// drives one server on a virtual clock, ClusterCell drives several daemons
// over real HTTP so ring routing, gossip and node-death behavior are
// exercised for real.
type ClusterCell struct {
	// Instances are the edge nodes, alive or killed.
	Instances []*EdgeInstance
	// Ring maps page keys to instance IDs; Kill removes the node so
	// subsequent routing re-shards.
	Ring *EdgeRing
	// Tenants lists the tenant names the cell serves.
	Tenants []string

	origins []*httptest.Server
	client  *http.Client
}

// EdgeRing is the cell's view of the consistent-hash ring plus the
// instance lookup the router needs.
type EdgeRing struct {
	*cluster.Ring
	byID map[string]*EdgeInstance
}

// EdgeInstance is one edge node.
type EdgeInstance struct {
	// ID is the node's ring member name.
	ID string
	// URL is the node's base URL.
	URL string
	// Registry carries the node's telemetry — per-tenant counters,
	// exchange activity, middleware metrics.
	Registry *telemetry.Registry

	handler atomic.Pointer[http.Handler]
	server  *httptest.Server
	drain   func() // NewEdge's; nil until the stack is built
	dead    atomic.Bool
}

// Alive reports whether the instance still accepts connections.
func (e *EdgeInstance) Alive() bool { return !e.dead.Load() }

// stop closes the instance's listener (in-flight connections reset, like a
// crash) and drains its stack. Only the first call acts.
func (e *EdgeInstance) stop() {
	if e.dead.Swap(true) {
		return
	}
	e.server.Close()
	if e.drain != nil {
		e.drain()
	}
}

const (
	// cellInstances is the edge node count: 3, the smallest cell where a
	// node death leaves a quorum of distinct survivors.
	cellInstances = 3
	// cellTenants is the tenant count: 2, the minimum that exercises
	// isolation.
	cellTenants = 2
)

// cellOrigin serves one tenant's site: a set of HTML pages referencing a
// shared stylesheet, bodies tagged with the tenant name so cross-tenant
// leaks are detectable in the payload itself.
func cellOrigin(name string) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.URL.Path == "/app.css":
			w.Header().Set("Content-Type", "text/css")
			fmt.Fprintf(w, "/* %s */ body{color:#000}", name)
		default:
			w.Header().Set("Content-Type", "text/html")
			fmt.Fprintf(w, `<html><head><link rel="stylesheet" href="/app.css"></head><body>%s %s</body></html>`,
				name, r.URL.Path)
		}
	})
}

// NewClusterCell starts the origins and edge instances and wires the
// exchanges peer-to-peer. Close releases everything.
func NewClusterCell() (*ClusterCell, error) {
	cell := &ClusterCell{client: &http.Client{Timeout: 5 * time.Second}}
	for i := 0; i < cellTenants; i++ {
		name := fmt.Sprintf("t%d", i)
		cell.Tenants = append(cell.Tenants, name)
		cell.origins = append(cell.origins, httptest.NewServer(cellOrigin(name)))
	}

	// Listeners first: every instance's exchange needs the others' URLs,
	// so the servers start on a swappable handler and the stacks are
	// installed once all addresses exist.
	ids := make([]string, cellInstances)
	for i := range ids {
		inst := &EdgeInstance{ID: fmt.Sprintf("edge%d", i)}
		ids[i] = inst.ID
		inst.server = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if h := inst.handler.Load(); h != nil {
				(*h).ServeHTTP(w, r)
				return
			}
			http.Error(w, "instance not ready", http.StatusServiceUnavailable)
		}))
		inst.URL = inst.server.URL
		cell.Instances = append(cell.Instances, inst)
	}

	for _, inst := range cell.Instances {
		var peers []string
		for _, other := range cell.Instances {
			if other != inst {
				peers = append(peers, other.URL)
			}
		}
		if err := cell.buildInstance(inst, peers); err != nil {
			cell.Close()
			return nil, err
		}
	}

	cell.Ring = &EdgeRing{Ring: cluster.NewRing(ids...), byID: make(map[string]*EdgeInstance, cellInstances)}
	for _, inst := range cell.Instances {
		cell.Ring.byID[inst.ID] = inst
	}
	return cell, nil
}

// buildInstance writes the node's tenant.Config — every tenant routed by
// Host to its origin, and the node's place in the cluster — and serves
// catalyst.NewEdge over it, as catalystd -config would.
func (c *ClusterCell) buildInstance(inst *EdgeInstance, peers []string) error {
	cfg := &tenant.Config{Cluster: tenant.ClusterConfig{Instance: inst.ID, Peers: peers}}
	for i, name := range c.Tenants {
		cfg.Tenants = append(cfg.Tenants, tenant.TenantConfig{Name: name, Upstream: c.origins[i].URL, Hosts: []string{name + ".cell"}})
	}
	inst.Registry = telemetry.NewRegistry()
	handler, drain, err := catalyst.NewEdge(cfg, catalyst.MiddlewareOptions{Telemetry: inst.Registry})
	if err != nil {
		return err
	}
	inst.drain = drain
	inst.handler.Store(&handler)
	return nil
}

// Get routes one request through the ring: the page's owner serves it,
// and if the owner is dead the request fails over to the next owner in
// preference order — the client-side half of the consistent-hashing
// story. Returns the status, body, response header and the ID of the
// instance that served.
func (c *ClusterCell) Get(tenantName, path string) (status int, body []byte, hdr http.Header, servedBy string, err error) {
	owners := c.Ring.OwnerN(tenantName+path, c.Ring.Len())
	if len(owners) == 0 {
		return 0, nil, nil, "", fmt.Errorf("cluster cell: empty ring")
	}
	var lastErr error
	for _, id := range owners {
		inst := c.Ring.byID[id]
		if inst == nil || !inst.Alive() {
			continue
		}
		status, body, hdr, err = c.getFrom(inst, tenantName, path)
		if err == nil {
			return status, body, hdr, inst.ID, nil
		}
		lastErr = err
	}
	return 0, nil, nil, "", fmt.Errorf("cluster cell: no live owner for %s%s: %w", tenantName, path, lastErr)
}

// GetFrom sends one request to a specific instance, bypassing the ring —
// how tests steer traffic at a non-owner to observe the hot-map exchange.
func (c *ClusterCell) GetFrom(id, tenantName, path string) (int, []byte, http.Header, error) {
	inst := c.Ring.byID[id]
	if inst == nil {
		return 0, nil, nil, fmt.Errorf("cluster cell: no instance %q", id)
	}
	return c.getFrom(inst, tenantName, path)
}

func (c *ClusterCell) getFrom(inst *EdgeInstance, tenantName, path string) (int, []byte, http.Header, error) {
	req, err := http.NewRequest(http.MethodGet, inst.URL+path, nil)
	if err != nil {
		return 0, nil, nil, err
	}
	// The Host header is the tenant routing key, exactly as a front tier
	// would present it.
	req.Host = tenantName + ".cell"
	resp, err := c.client.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, nil, err
	}
	return resp.StatusCode, body, resp.Header, nil
}

// Kill stops one instance mid-run — the chaos step. The node's listener
// closes (in-flight connections reset, like a crash) and the ring drops
// the member so routing re-shards; the node's caches die with it.
func (c *ClusterCell) Kill(id string) {
	inst := c.Ring.byID[id]
	if inst == nil || !inst.Alive() {
		return
	}
	inst.stop()
	c.Ring.Remove(id)
}

// Snapshot returns one instance's telemetry snapshot.
func (c *ClusterCell) Snapshot(id string) telemetry.Snapshot {
	return c.Ring.byID[id].Registry.Snapshot()
}

// HitRatio aggregates a tenant's warm-serve hit ratio across the cell's
// live instances: pages served from a cached render — render-cache lookups
// (one per decorated page) less the renders built — over the tenant's
// requests, read from each node's "tenant.<name>.*" counters.
func (c *ClusterCell) HitRatio(tenantName string) float64 {
	var hits, requests int64
	for _, inst := range c.Instances {
		if !inst.Alive() {
			continue
		}
		snap := inst.Registry.Snapshot()
		renders := "tenant." + tenantName + ".renders."
		hits += snap.Counters[renders+"hits"] + snap.Counters[renders+"misses"] - snap.Counters[renders+"loads"]
		requests += snap.Counters["tenant."+tenantName+".requests"]
	}
	if requests == 0 {
		return 0
	}
	return float64(hits) / float64(requests)
}

// Close tears the cell down: instances first (their exchanges stop
// gossiping), then the shared origins.
func (c *ClusterCell) Close() {
	for _, inst := range c.Instances {
		inst.stop()
	}
	for _, o := range c.origins {
		o.Close()
	}
}
