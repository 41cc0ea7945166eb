package catalyst

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"cachecatalyst/internal/resilience"
	"cachecatalyst/internal/telemetry"
	"cachecatalyst/internal/tenant"
	"cachecatalyst/internal/vclock"
)

// tenantRouter is a stand-in for catalystd's multi-origin inner handler: it
// serves different content per tenant read from the request context, and
// can be flipped to fail for one tenant only.
type tenantRouter struct {
	failing atomic.Value // tenant name currently erroring, or ""
}

func (tr *tenantRouter) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	name := "none"
	if t, ok := tenant.FromContext(r.Context()); ok {
		name = t.Name
	}
	if f, _ := tr.failing.Load().(string); f != "" && f == name {
		http.Error(w, "origin down", http.StatusBadGateway)
		return
	}
	switch {
	case strings.HasSuffix(r.URL.Path, ".css"):
		w.Header().Set("Content-Type", "text/css")
		fmt.Fprintf(w, "/* %s */ body{}", name)
	case strings.HasSuffix(r.URL.Path, ".html") || r.URL.Path == "/":
		w.Header().Set("Content-Type", "text/html")
		fmt.Fprintf(w, `<html><head><link rel="stylesheet" href="/app.css"></head><body>%s</body></html>`, name)
	default:
		http.NotFound(w, r)
	}
}

// newTenantedMiddleware serves a tenantRouter to tenants alpha and beta.
// breaker, when set, builds each tenant's origin breaker, as catalystd wires
// one per configured tenant.
func newTenantedMiddleware(t *testing.T, reg *telemetry.Registry, opts MiddlewareOptions, breaker func(name string) *resilience.Breaker, edits ...func(*tuning)) (http.Handler, *tenantRouter) {
	t.Helper()
	tr := &tenantRouter{}
	tr.failing.Store("")
	opts.Telemetry = reg
	mw := tuned(tr, opts, edits...)
	alpha := &tenant.Tenant{Name: "alpha", Hosts: []string{"alpha.test"}}
	beta := &tenant.Tenant{Name: "beta", Hosts: []string{"beta.test"}}
	if breaker != nil {
		alpha.Breaker, beta.Breaker = breaker(alpha.Name), breaker(beta.Name)
	}
	res, err := tenant.NewResolver([]*tenant.Tenant{alpha, beta})
	if err != nil {
		t.Fatal(err)
	}
	return tenant.Handler(res, reg, mw), tr
}

func tenantGet(h http.Handler, host, path string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodGet, "http://"+host+path, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// TestTenantIsolatedServing pins that two tenants sharing one middleware
// get distinct bodies, distinct maps (probed against their own tenant),
// and per-tenant cache telemetry.
func TestTenantIsolatedServing(t *testing.T) {
	reg := telemetry.NewRegistry()
	h, _ := newTenantedMiddleware(t, reg, MiddlewareOptions{}, nil)

	ra := tenantGet(h, "alpha.test", "/")
	rb := tenantGet(h, "beta.test", "/")
	if ra.Code != 200 || rb.Code != 200 {
		t.Fatalf("status alpha=%d beta=%d", ra.Code, rb.Code)
	}
	if !strings.Contains(ra.Body.String(), ">alpha<") || !strings.Contains(rb.Body.String(), ">beta<") {
		t.Fatalf("tenant bodies crossed: alpha=%q beta=%q", ra.Body.String(), rb.Body.String())
	}
	if ra.Header().Get(HeaderName) == "" || rb.Header().Get(HeaderName) == "" {
		t.Fatal("missing X-Etag-Config on a tenant response")
	}
	// The stylesheet differs per tenant, so the probed maps must differ.
	if ra.Header().Get(HeaderName) == rb.Header().Get(HeaderName) {
		t.Fatalf("tenants share a map: %s", ra.Header().Get(HeaderName))
	}

	// Second serve of each page is a warm hit in that tenant's render cache.
	tenantGet(h, "alpha.test", "/")
	snap := reg.Snapshot()
	if snap.Counters["tenant.alpha.renders.hits"] == 0 {
		t.Fatalf("no warm hit recorded in alpha's render cache: %v", snap.Counters)
	}
	if snap.Counters["tenant.beta.renders.hits"] != 0 {
		t.Fatalf("alpha's warm hit leaked into beta's render cache: %v", snap.Counters)
	}
	if snap.Counters["tenant.alpha.requests"] != 2 || snap.Counters["tenant.beta.requests"] != 1 {
		t.Fatalf("per-tenant request counters wrong: %v", snap.Counters)
	}
}

// TestTenantBreakerIsolation pins that one tenant's flapping origin trips
// only that tenant's breaker: the sibling keeps full service, and the
// failing tenant degrades to its own stale copy.
func TestTenantBreakerIsolation(t *testing.T) {
	reg := telemetry.NewRegistry()
	clk := vclock.NewVirtual(vclock.Epoch)
	h, tr := newTenantedMiddleware(t, reg, MiddlewareOptions{}, func(name string) *resilience.Breaker {
		return resilience.NewBreaker(resilience.BreakerOptions{Telemetry: reg, Name: "tenant." + name + ".origin"})
	}, withClock(clk))

	// Warm both tenants so stale copies exist.
	tenantGet(h, "alpha.test", "/")
	tenantGet(h, "beta.test", "/")

	tr.failing.Store("alpha")
	for i := 0; i < resilience.BreakerThreshold+2; i++ {
		rec := tenantGet(h, "alpha.test", "/")
		// Every one of these is answered from alpha's stale copy (the
		// sniff writer holds back the 502), never an error.
		if rec.Code != 200 || rec.Header().Get("Warning") == "" {
			t.Fatalf("serve %d: code %d warning %q", i, rec.Code, rec.Header().Get("Warning"))
		}
		if !strings.Contains(rec.Body.String(), ">alpha<") {
			t.Fatalf("stale body crossed tenants: %q", rec.Body.String())
		}
	}
	// Beta is untouched: full service, no warning, fresh map.
	rb := tenantGet(h, "beta.test", "/")
	if rb.Code != 200 || rb.Header().Get("Warning") != "" || rb.Header().Get(HeaderName) == "" {
		t.Fatalf("beta degraded alongside alpha: code %d warning %q", rb.Code, rb.Header().Get("Warning"))
	}
	if snap := reg.Snapshot(); snap.Counters["tenant.alpha.origin.trips"] == 0 || snap.Counters["tenant.beta.origin.trips"] != 0 {
		t.Fatalf("alpha's breaker should have opened and beta's not: alpha %d trips, beta %d",
			snap.Counters["tenant.alpha.origin.trips"], snap.Counters["tenant.beta.origin.trips"])
	}

	// Alpha recovers once its origin does: the breaker holds alpha open
	// until its cooldown ends, and then a trial request closes it.
	tr.failing.Store("")
	if rec := tenantGet(h, "alpha.test", "/"); rec.Header().Get("Warning") == "" {
		t.Fatal("alpha's open breaker let a request through inside its cooldown")
	}
	clk.Advance(resilience.BreakerCooldown)
	if rec := tenantGet(h, "alpha.test", "/"); rec.Code != 200 || rec.Header().Get("Warning") != "" {
		t.Fatalf("alpha did not recover after its origin did: code %d warning %q", rec.Code, rec.Header().Get("Warning"))
	}
}

// TestTenantDefaultPathUntouched pins the instrument names of the default
// state — a request with no tenant in context lands on "middleware.*" and
// registers nothing under "tenant.*" — and that default and tenant states,
// built by the one constructor, expose the same set of caches, gate and
// breaker.
func TestTenantDefaultPathUntouched(t *testing.T) {
	reg := telemetry.NewRegistry()
	tr := &tenantRouter{}
	tr.failing.Store("")
	breaker := func() *resilience.Breaker {
		return resilience.NewBreaker(resilience.BreakerOptions{})
	}
	mw := Middleware(tr, MiddlewareOptions{
		Telemetry: reg, Delta: true, MaxInflight: 4, OriginBreaker: breaker(),
	})

	rec := httptest.NewRecorder()
	mw.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/index.html", nil))
	if rec.Code != 200 || rec.Header().Get(HeaderName) == "" {
		t.Fatalf("tenantless serve broken: code %d", rec.Code)
	}
	snap := reg.Snapshot()
	if snap.Counters["middleware.renders.puts"] != 1 {
		t.Fatalf("tenantless render went somewhere other than the default cache: %v", snap.Counters)
	}
	for name := range snap.Counters {
		if strings.HasPrefix(name, "tenant.") {
			t.Fatalf("tenantless serving registered tenant instrument %q", name)
		}
	}

	m := mw.(*middleware)
	acme := &tenant.Tenant{Name: "acme", Breaker: breaker()}
	req := httptest.NewRequest(http.MethodGet, "/index.html", nil)
	ts := m.stateFor(req.WithContext(tenant.NewContext(req.Context(), acme)))
	if ts == &m.def || ts.name != "acme" {
		t.Fatalf("tenant request resolved to state %q", ts.name)
	}
	parts := func(s *tenantState) map[string]bool {
		return map[string]bool{
			"probes": s.probes != nil, "renders": s.renders != nil,
			"stales": s.stales != nil, "delta_bases": s.deltaBases != nil,
			"gate": s.gate != nil, "breaker": s.breaker != nil,
		}
	}
	def, ten := parts(&m.def), parts(ts)
	for part, have := range def {
		if !have || !ten[part] {
			t.Errorf("%s: default state has it = %v, tenant state has it = %v", part, have, ten[part])
		}
	}
	// Same parts, separate storage, parallel names.
	if ts.renders == m.def.renders || ts.probes == m.def.probes || ts.gate == m.def.gate || ts.breaker == m.def.breaker {
		t.Error("tenant state shares a cache, gate or breaker with the default state")
	}
	snap = reg.Snapshot()
	for _, kind := range []string{"probes", "renders", "stales", "delta_bases"} {
		for _, name := range []string{"middleware." + kind + ".puts", "tenant.acme." + kind + ".puts"} {
			if _, ok := snap.Counters[name]; !ok {
				t.Errorf("instrument %q not registered", name)
			}
		}
	}
	// One page store per state, and no counter that duplicates a store's
	// own evictions.
	for name := range snap.Counters {
		if strings.Contains(name, ".hot.") || name == "middleware.renders_evicted" || name == "middleware.probes_swept" {
			t.Errorf("retired instrument %q registered", name)
		}
	}
}

// TestTenantStateBuiltOnceUnderConcurrentFirstRequests releases the first
// requests of many fresh tenants at once. Each tenant's state — its gate
// included — must be built once: were a racing request to build a second
// one, the registry would read that discarded gate's counters, and the
// tenant's "gate.admitted" would miss requests its live gate admitted.
func TestTenantStateBuiltOnceUnderConcurrentFirstRequests(t *testing.T) {
	const tenants, perTenant = 120, 8
	reg := telemetry.NewRegistry()
	tr := &tenantRouter{}
	tr.failing.Store("")
	mw := Middleware(tr, MiddlewareOptions{Telemetry: reg, MaxInflight: perTenant})

	var served [tenants]atomic.Int64
	release := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < tenants; i++ {
		tn := &tenant.Tenant{Name: fmt.Sprintf("t%03d", i)}
		for g := 0; g < perTenant; g++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				req := httptest.NewRequest(http.MethodGet, "/index.html", nil)
				req = req.WithContext(tenant.NewContext(req.Context(), tn))
				rec := httptest.NewRecorder()
				<-release
				mw.ServeHTTP(rec, req)
				if rec.Code == http.StatusOK {
					served[i].Add(1)
				}
			}(i)
		}
	}
	close(release)
	wg.Wait()

	counters := reg.Snapshot().Counters
	split := 0
	for i := range served {
		name := fmt.Sprintf("tenant.t%03d.gate.admitted", i)
		if got, want := counters[name], served[i].Load(); got != want {
			if split++; split <= 3 {
				t.Errorf("%s = %d, but the tenant served %d requests", name, got, want)
			}
		}
	}
	if split > 0 {
		t.Errorf("%d of %d tenants report a gate other than the one that admitted their requests", split, tenants)
	}
}

// TestTenantStoreBudgets pins the byte budget of every store a tenant's
// state opens: the render cache takes the tenant's budget, stale copies and
// delta bases half of it; zero keeps the default state's budgets, a
// negative budget means unbounded (MaxBytes 0), and the probe cache keeps
// the default's whatever the tenant bought. A disabled render cache stays
// disabled for every tenant.
func TestTenantStoreBudgets(t *testing.T) {
	probeBudget := int64(maxProbeEntries) * probeBaseCost
	type budgets struct{ renders, stales, deltaBases, probes int64 }
	for _, c := range []struct {
		name           string
		maxRenderBytes int64
		budgetBytes    int64
		want           budgets
	}{
		{"inherit", 0, 0, budgets{defaultRenderBytes, bodyStoreBudget, bodyStoreBudget, probeBudget}},
		{"inherit-option", 4 << 20, 0, budgets{4 << 20, bodyStoreBudget, bodyStoreBudget, probeBudget}},
		{"own", 0, 2 << 20, budgets{2 << 20, 1 << 20, 1 << 20, probeBudget}},
		{"unbounded", 0, -1, budgets{0, 0, 0, probeBudget}},
		{"renders-off", -1, 2 << 20, budgets{-1, 1 << 20, 1 << 20, probeBudget}},
	} {
		t.Run(c.name, func(t *testing.T) {
			tr := &tenantRouter{}
			tr.failing.Store("")
			m := Middleware(tr, MiddlewareOptions{MaxRenderBytes: c.maxRenderBytes, Delta: true}).(*middleware)
			req := httptest.NewRequest(http.MethodGet, "/", nil)
			ts := m.stateFor(req.WithContext(tenant.NewContext(req.Context(), &tenant.Tenant{Name: "acme", BudgetBytes: c.budgetBytes})))
			got := budgets{-1, ts.stales.MaxBytes(), ts.deltaBases.MaxBytes(), ts.probes.MaxBytes()}
			if ts.renders != nil {
				got.renders = ts.renders.MaxBytes()
			}
			if got != c.want {
				t.Errorf("tenant budgets %+v, want %+v (-1: no render cache)", got, c.want)
			}
		})
	}
}
