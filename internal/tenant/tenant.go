// Package tenant introduces the application dimension to the edge tier:
// who a request is served on behalf of, and which cache budget and
// degradation knobs that application bought.
//
// The paper's mechanism was built single-origin — one middleware, one
// upstream, flat process-global caches. A shared edge tier cannot work that
// way: Ma et al. (cross-application redundant transfer) show cache space
// must be scoped to the application, not the URL space, and CacheLib's
// pools are the production shape of that argument — isolated per-tenant
// budgets behind one process. This package supplies the boundary: a Tenant
// descriptor, a Resolver mapping Host/path-prefix to a tenant, and context
// plumbing that threads the resolved tenant through the serving stack the
// same way telemetry tracers travel.
//
// Layers never take a *Tenant parameter; they read it from the request
// context (FromContext). A deployment with no tenant in context is served
// by the default instance of the same per-tenant state — built by the same
// constructor with every knob unset — not by a second code path.
package tenant

import (
	"context"
	"fmt"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"time"

	"cachecatalyst/internal/resilience"
	"cachecatalyst/internal/telemetry"
)

// Tenant describes one application served by the edge tier.
type Tenant struct {
	// Name identifies the tenant's serving state, its telemetry
	// instruments ("tenant.<name>.*") and the hot-map exchange. Must be
	// non-empty and unique within a Resolver.
	Name string
	// Upstream is the absolute URL of the tenant's origin (proxy
	// tenants). Empty means the tenant is served by whatever inner
	// handler the edge was built over (the single-tenant serve mode).
	Upstream string
	// Hosts are the Host header values (port ignored) that route to this
	// tenant.
	Hosts []string
	// PathPrefix routes requests whose path starts with the prefix;
	// longest prefix wins across tenants. Empty disables prefix routing
	// for this tenant.
	PathPrefix string
	// BudgetBytes bounds the tenant's own derived caches (rendered
	// pages; stale copies at half scale). Zero inherits
	// the process default; negative means unbounded.
	BudgetBytes int64
	// MaxInflight bounds the tenant's concurrently instrumented
	// requests; excess degrades down the ladder. Zero inherits the
	// process default.
	MaxInflight int
	// RequestBudget deadlines the tenant's instrumented requests. Zero
	// inherits the process default.
	RequestBudget time.Duration
	// StaleFor bounds how long the tenant's last-known-good copies may
	// be re-served under degradation. Zero keeps the middleware's 5
	// minutes; negative disables stale serving.
	StaleFor time.Duration
	// HealthInterval is the cadence of the tenant's upstream health
	// probe (and, derived from it, the probe's request timeout: half the
	// interval). Zero selects 2 seconds; a positive value below 100 ms
	// (minHealthInterval) is refused.
	HealthInterval time.Duration
	// Breaker, when set by the daemon, is the tenant's upstream circuit
	// breaker — shared with its health checker so recovery is
	// probe-driven. The middleware consults it before touching the
	// tenant's upstream.
	Breaker *resilience.Breaker
}

// minHealthInterval is the shortest health-probe cadence a tenant may set.
// A probe may take half the interval: at a 5 ms cadence a healthy loopback
// origin was seen to miss that deadline under the race detector, and five
// misses in a row open the tenant's breaker and send a healthy tenant down
// the stale ladder.
const minHealthInterval = 100 * time.Millisecond

// Validate reports the first problem with the descriptor.
func (t *Tenant) Validate() error {
	if t.Name == "" {
		return fmt.Errorf("tenant: empty name")
	}
	if strings.ContainsAny(t.Name, " \x00/.") {
		return fmt.Errorf("tenant %q: name must not contain spaces, dots, slashes or NUL (it keys serving state and telemetry)", t.Name)
	}
	if t.Upstream != "" {
		u, err := url.Parse(t.Upstream)
		if err != nil {
			return fmt.Errorf("tenant %q: upstream %q: %v", t.Name, t.Upstream, err)
		}
		if u.Scheme == "" || u.Host == "" {
			return fmt.Errorf("tenant %q: upstream %q: need an absolute URL (http://host:port)", t.Name, t.Upstream)
		}
	}
	if t.PathPrefix != "" && !strings.HasPrefix(t.PathPrefix, "/") {
		return fmt.Errorf("tenant %q: path prefix %q must start with /", t.Name, t.PathPrefix)
	}
	if t.HealthInterval > 0 && t.HealthInterval < minHealthInterval {
		return fmt.Errorf("tenant %q: healthInterval %v is below the %v floor", t.Name, t.HealthInterval, minHealthInterval)
	}
	return nil
}

// ctxKey carries the resolved tenant in a request context.
type ctxKey struct{}

// NewContext returns ctx carrying t.
func NewContext(ctx context.Context, t *Tenant) context.Context {
	return context.WithValue(ctx, ctxKey{}, t)
}

// FromContext returns the tenant attached to ctx, if any. Layers use the
// absence to select their default state.
func FromContext(ctx context.Context) (*Tenant, bool) {
	t, ok := ctx.Value(ctxKey{}).(*Tenant)
	return t, ok
}

// Resolver maps a request to the tenant it is served for. Host rules win
// over path-prefix rules; among prefixes the longest match wins; a tenant
// with neither hosts nor a prefix is the catch-all default (at most one).
// A Resolver is immutable after construction and safe for concurrent use.
type Resolver struct {
	byHost   map[string]*Tenant
	prefixes []*Tenant // sorted by descending prefix length
	def      *Tenant
	tenants  []*Tenant
}

// NewResolver builds a resolver over the given tenants, validating each
// descriptor, name uniqueness, and rule collisions.
func NewResolver(tenants []*Tenant) (*Resolver, error) {
	if len(tenants) == 0 {
		return nil, fmt.Errorf("tenant: no tenants configured")
	}
	r := &Resolver{
		byHost:  make(map[string]*Tenant),
		tenants: append([]*Tenant(nil), tenants...),
	}
	seen := make(map[string]bool, len(tenants))
	for _, t := range tenants {
		if err := t.Validate(); err != nil {
			return nil, err
		}
		if seen[t.Name] {
			return nil, fmt.Errorf("tenant %q: duplicate name", t.Name)
		}
		seen[t.Name] = true
		for _, h := range t.Hosts {
			key := strings.ToLower(stripPort(h))
			if key == "" {
				return nil, fmt.Errorf("tenant %q: empty host rule", t.Name)
			}
			if prev, ok := r.byHost[key]; ok {
				return nil, fmt.Errorf("tenant %q: host %q already routes to %q", t.Name, h, prev.Name)
			}
			r.byHost[key] = t
		}
		if t.PathPrefix != "" {
			r.prefixes = append(r.prefixes, t)
		}
		if len(t.Hosts) == 0 && t.PathPrefix == "" {
			if r.def != nil {
				return nil, fmt.Errorf("tenant %q: %q is already the catch-all default", t.Name, r.def.Name)
			}
			r.def = t
		}
	}
	sort.SliceStable(r.prefixes, func(i, j int) bool {
		return len(r.prefixes[i].PathPrefix) > len(r.prefixes[j].PathPrefix)
	})
	for i := 1; i < len(r.prefixes); i++ {
		if r.prefixes[i].PathPrefix == r.prefixes[i-1].PathPrefix {
			return nil, fmt.Errorf("tenant %q: path prefix %q already routes to %q",
				r.prefixes[i].Name, r.prefixes[i].PathPrefix, r.prefixes[i-1].Name)
		}
	}
	return r, nil
}

// Resolve returns the tenant for a request's Host and path, or nil when no
// rule (and no default) matches.
func (r *Resolver) Resolve(host, path string) *Tenant {
	if t, ok := r.byHost[strings.ToLower(stripPort(host))]; ok {
		return t
	}
	for _, t := range r.prefixes {
		if strings.HasPrefix(path, t.PathPrefix) {
			return t
		}
	}
	return r.def
}

// ResolveRequest is Resolve over an *http.Request.
func (r *Resolver) ResolveRequest(req *http.Request) *Tenant {
	return r.Resolve(req.Host, req.URL.Path)
}

// Tenants returns the resolver's tenants in configuration order.
func (r *Resolver) Tenants() []*Tenant {
	return append([]*Tenant(nil), r.tenants...)
}

// Lookup returns the tenant with the given name, if configured.
func (r *Resolver) Lookup(name string) (*Tenant, bool) {
	for _, t := range r.tenants {
		if t.Name == name {
			return t, true
		}
	}
	return nil, false
}

// stripPort drops a :port suffix from a Host header value, tolerating
// bracketed IPv6 literals.
func stripPort(host string) string {
	if strings.HasPrefix(host, "[") {
		if i := strings.IndexByte(host, ']'); i >= 0 {
			return host[1:i]
		}
		return host[1:]
	}
	// A lone colon separates a port; several mean a bare IPv6 literal.
	if i := strings.LastIndexByte(host, ':'); i >= 0 && strings.IndexByte(host[:i], ':') < 0 {
		return host[:i]
	}
	return host
}

// Handler injects the resolved tenant into every request's context and
// counts per-tenant traffic in reg under "tenant.<name>.requests"
// ("tenant.unrouted.requests" for requests no rule matches — those serve
// through next without a tenant, on the single-tenant code path).
func Handler(r *Resolver, reg *telemetry.Registry, next http.Handler) http.Handler {
	counters := make(map[string]*telemetry.Counter, len(r.tenants))
	var unrouted *telemetry.Counter
	if reg != nil {
		for _, t := range r.tenants {
			counters[t.Name] = reg.Counter("tenant." + t.Name + ".requests")
		}
		unrouted = reg.Counter("tenant.unrouted.requests")
	}
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		t := r.ResolveRequest(req)
		if t == nil {
			if unrouted != nil {
				unrouted.Add(1)
			}
			next.ServeHTTP(w, req)
			return
		}
		if c := counters[t.Name]; c != nil {
			c.Add(1)
		}
		next.ServeHTTP(w, req.WithContext(NewContext(req.Context(), t)))
	})
}
