package catalyst

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httputil"
	"net/url"
	"sync"
	"time"

	"cachecatalyst/internal/cluster"
	"cachecatalyst/internal/resilience"
	"cachecatalyst/internal/telemetry"
	"cachecatalyst/internal/tenant"
)

// upstreamIdleConns is how many idle keep-alive connections an upstream's
// transport retains. The idle pool is a cache of sockets, and what it must
// cover is the probe fan-out: one cold render holds probeConcurrency (8)
// probes in flight at once, and a handful of renders overlap under load, so
// 8 × 8 connections come back to the pool together. Go's default of 2 per
// host closes all but two of them — and the next render dials them again,
// which made connect/close the largest single line in the proxy-mode CPU
// profile. IdleConnTimeout (inherited, 90 s) reaps what a burst leaves
// behind, so the constant bounds sockets held, not sockets opened.
const upstreamIdleConns = 64

// copyBuffers recycles the reverse proxy's body-copy buffers across every
// upstream in the process; without a BufferPool each proxied body costs a
// freshly zeroed 32 KB slice (the size httputil.ReverseProxy allocates
// itself). The pool holds *[]byte, the pointer-shaped form sync.Pool wants;
// httputil.BufferPool hands Put a bare slice, so each Put still costs the
// 24-byte header — against the 32 KB it saves.
type copyBuffers struct{ pool sync.Pool }

func (p *copyBuffers) Get() []byte  { return *p.pool.Get().(*[]byte) }
func (p *copyBuffers) Put(b []byte) { p.pool.Put(&b) }

var upstreamBuffers = copyBuffers{pool: sync.Pool{New: func() any {
	b := make([]byte, 32<<10)
	return &b
}}}

// NewUpstream assembles what fronts one origin, the same for catalystd's
// -origin and for every tenant NewEdge fronts: the reverse proxy, a circuit
// breaker (resilience.BreakerOptions' defaults) and a running health checker
// sharing that breaker, so recovery is probe-driven. The proxy is a
// single-host reverse proxy over a transport of its own, whose idle pool
// covers the probe fan-out (upstreamIdleConns), with pooled copy buffers. A
// dead upstream becomes a silent 502 the middleware can hold back in favor
// of a stale copy; the default error handler would also log every failure,
// which under a brown-out is pure noise.
//
// The checker's requests ride the proxy's transport, so every socket this
// upstream holds is in one pool; stop ends the checker and closes that
// pool's idle connections (and the two goroutines each one parks). The
// instruments are "<prefix>origin" and "<prefix>health"; a non-positive
// interval selects 2 seconds.
func NewUpstream(u *url.URL, prefix string, interval time.Duration, reg *telemetry.Registry) (proxy http.Handler, breaker *resilience.Breaker, stop func()) {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConns = upstreamIdleConns
	tr.MaxIdleConnsPerHost = upstreamIdleConns
	rp := httputil.NewSingleHostReverseProxy(u)
	rp.Transport = tr
	rp.BufferPool = &upstreamBuffers
	rp.ErrorHandler = func(w http.ResponseWriter, r *http.Request, err error) {
		w.WriteHeader(http.StatusBadGateway)
	}

	breaker = resilience.NewBreaker(resilience.BreakerOptions{Telemetry: reg, Name: prefix + "origin"})
	if interval <= 0 {
		interval = 2 * time.Second
	}
	health := resilience.NewHealthChecker(breaker, healthProbe(u, interval, tr), resilience.HealthOptions{
		Interval:  interval,
		Telemetry: reg,
		Name:      prefix + "health",
	})
	health.Start()
	return rp, breaker, func() {
		health.Stop()
		tr.CloseIdleConnections()
	}
}

// healthProbe builds the upstream liveness probe for a health checker
// running at the given interval. The probe client's timeout derives from
// the interval — never exceeds it — so one slow upstream answer cannot
// overlap the next probe, whatever the checker's context deadline does.
func healthProbe(u *url.URL, interval time.Duration, transport http.RoundTripper) func(ctx context.Context) error {
	client := &http.Client{Timeout: interval, Transport: transport}
	target := u.String()
	return func(ctx context.Context) error {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, target, nil)
		if err != nil {
			return err
		}
		resp, err := client.Do(req)
		if err != nil {
			return err
		}
		resp.Body.Close()
		if resp.StatusCode >= http.StatusInternalServerError {
			return fmt.Errorf("upstream %s: %s", u.Host, resp.Status)
		}
		return nil
	}
}

// NewEdge assembles the multi-tenant edge a tenant.Config describes — what
// catalystd -config serves, and what every instance of the cluster harness
// runs. Every tenant proxies its Upstream, which ParseConfig requires, over
// an upstream of its own (NewUpstream, instruments
// "tenant.<name>.origin" and "tenant.<name>.health") whose breaker rides the
// tenant descriptor, so one tenant's flapping origin trips only that
// tenant's degradation ladder. tenant.Handler resolves the tenant from
// Host/path into the request context, where the middleware and cachestore
// dimension their state per tenant; a request no tenant claims is answered
// 421, since it reached an edge that does not serve its site. A cluster
// stanza joins a hot-map exchange, mounted at its endpoint and handed to
// the middleware as opts.Exchange.
//
// drain stops every health checker, closes the upstreams' idle
// connections and stops the exchange's sender; call it once the edge has
// stopped serving.
func NewEdge(cfg *tenant.Config, opts MiddlewareOptions) (handler http.Handler, drain func(), err error) {
	resolver, err := cfg.Resolver()
	if err != nil {
		return nil, nil, err
	}
	tenants := resolver.Tenants()
	proxies := make(map[string]http.Handler, len(tenants))
	stops := make([]func(), 0, len(tenants)+1)
	drain = func() {
		for _, stop := range stops {
			stop()
		}
	}
	for _, t := range tenants {
		u, _ := url.Parse(t.Upstream) // the resolver validated it
		var stop func()
		proxies[t.Name], t.Breaker, stop = NewUpstream(u, "tenant."+t.Name+".", t.HealthInterval, opts.Telemetry)
		stops = append(stops, stop)
	}
	inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t, ok := tenant.FromContext(r.Context())
		if !ok {
			http.Error(w, "no tenant serves this host", http.StatusMisdirectedRequest)
			return
		}
		proxies[t.Name].ServeHTTP(w, r)
	})

	var exch *cluster.Exchange
	if cfg.Cluster.Enabled() {
		exch = cluster.NewExchange(cluster.ExchangeOptions{
			Instance:  cfg.Cluster.Instance,
			Peers:     cfg.Cluster.Peers,
			Telemetry: opts.Telemetry,
		})
		opts.Exchange = exch
		stops = append(stops, exch.Close)
	}
	handler = tenant.Handler(resolver, opts.Telemetry, Middleware(inner, opts))
	if exch != nil {
		handler = exch.Mount(handler)
	}
	return handler, drain, nil
}
