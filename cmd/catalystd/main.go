// Command catalystd serves a directory tree over HTTP with CacheCatalyst
// enabled — the reproduction's counterpart of the authors' modified Caddy.
//
//	catalystd -dir ./site -addr :8080 -record
//
// Every HTML response carries the X-Etag-Config map and the Service-Worker
// registration snippet; the worker script is served at /cc-sw.js; all
// resources answer conditional requests with 304s. With -record, the
// server additionally captures per-session first-visit resource lists so
// revisit maps cover JavaScript-discovered resources.
//
// Pass -plain to disable the mechanism and serve with conventional cache
// headers only (the baseline), which is handy for A/B comparisons with a
// real browser's devtools.
//
// # Proxy mode
//
//	catalystd -origin http://app:3000 -addr :8080
//
// With -origin, catalystd fronts an existing upstream instead of serving
// files: responses are decorated by the middleware, an active health
// checker probes the upstream, and a circuit breaker flips the daemon to
// serving stale copies (Warning: 110) when the upstream flaps, instead of
// error-proxying its 5xxs.
//
// # Multi-tenant mode
//
//	catalystd -config catalystd.json -addr :8080
//
// With -config, catalystd fronts several upstreams from one process: the
// file names each tenant (its upstream, Host/path routing rule, cache byte
// budget, degradation knobs), and the daemon gives each one caches of its
// own, its own circuit breaker and health checker, and per-tenant
// "tenant.<name>.*" telemetry. A "cluster" stanza additionally joins the
// instance to a peer group: hot X-Etag-Config encodings gossip between
// instances so a page rendered on one node serves from a peer without
// re-probing. -origin and -config are mutually exclusive; all existing flags
// keep working as the defaults tenants inherit.
//
// # Caches
//
// The daemon's derived caches — rendered pages in serve mode; probes,
// rendered pages and stale copies in proxy mode — evict in greedy-dual
// size-frequency order, the cache core's only one. There is no policy flag,
// and a command line that still names one refuses to start. -cache-budget
// resizes the rendered-page cache. With -metrics, the effective settings are
// echoed under "config" at /debug/catalystd, and each cache reports its
// evictions in the telemetry snapshot. cmd/cachesim scores
// the order offline against recorded or synthetic workloads.
//
// # Overload and lifecycle
//
// -max-inflight bounds concurrent instrumented work — every proxied request,
// and the HTML pages -dir decorates; excess requests degrade down a ladder
// (stale copy, un-instrumented passthrough, 503 + Retry-After) instead of
// queueing without bound. Serving -dir keeps no stale copies, so there the
// ladder is an undecorated page, then a 503. -request-budget puts a
// wall-clock deadline on each request's probe fan-out. On SIGTERM or
// SIGINT the daemon drains: the listener closes, in-flight requests get
// -shutdown-timeout to finish, and the telemetry snapshot is flushed to
// stderr before exit.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/url"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"cachecatalyst/catalyst"
	"cachecatalyst/internal/resilience"
	"cachecatalyst/internal/server"
	"cachecatalyst/internal/telemetry"
	"cachecatalyst/internal/tenant"
)

func main() {
	opts, err := parseFlags(os.Args[1:], os.Stderr)
	if errors.Is(err, flag.ErrHelp) {
		os.Exit(0)
	} else if err != nil {
		os.Exit(2)
	}

	// The registry always exists so the shutdown snapshot has something
	// to flush; -metrics additionally serves it over HTTP.
	reg := telemetry.NewRegistry()
	built, err := buildHandler(opts, reg)
	if err != nil {
		log.Fatalf("catalystd: %v", err)
	}
	for _, line := range built.Info {
		fmt.Printf("catalystd: %s on %s\n", line, opts.Addr)
	}
	if opts.Metrics {
		fmt.Printf("catalystd: metrics at %s\n", catalyst.MetricsPath)
		if opts.PProf {
			fmt.Println("catalystd: pprof at /debug/pprof/")
		}
	}

	ln, err := net.Listen("tcp", opts.Addr)
	if err != nil {
		log.Fatalf("catalystd: %v", err)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	httpSrv := &http.Server{
		Handler:           built.Handler,
		ReadHeaderTimeout: 10 * time.Second,
	}
	err = resilience.Serve(ctx, httpSrv, ln, resilience.ServeOptions{
		ShutdownTimeout: opts.ShutdownTimeout,
		Telemetry:       reg,
		SnapshotTo:      os.Stderr,
		Logf:            log.Printf,
		OnDrain:         built.OnDrain,
	})
	if err != nil {
		log.Fatalf("catalystd: %v", err)
	}
}

// daemonOptions is the daemon's resolved configuration — every flag after
// parsing. buildHandler consumes it so the flag-to-handler mapping is
// testable without a process or a listener.
type daemonOptions struct {
	Dir             string
	Addr            string
	Origin          string
	ConfigPath      string
	Record          bool
	Plain           bool
	Metrics         bool
	PProf           bool
	ServerTiming    bool
	MaxInflight     int
	RequestBudget   time.Duration
	ShutdownTimeout time.Duration
	CacheBudget     int64
	AccessLogSize   int
}

// parseFlags reads the command line into the daemon's options. A flag it
// does not define, a retired one included, is an error, reported on stderr
// with the usage.
func parseFlags(args []string, stderr io.Writer) (daemonOptions, error) {
	var o daemonOptions
	fs := flag.NewFlagSet("catalystd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.Dir, "dir", ".", "directory tree to serve")
	fs.StringVar(&o.Addr, "addr", ":8080", "listen address")
	fs.StringVar(&o.Origin, "origin", "", "proxy this upstream origin URL instead of serving -dir, with health-checked failover to stale copies")
	fs.StringVar(&o.ConfigPath, "config", "", "multi-tenant config file (JSON); fronts several upstreams with per-tenant caches, breakers and telemetry")
	fs.BoolVar(&o.Record, "record", false, "enable first-visit session recording")
	fs.BoolVar(&o.Plain, "plain", false, "disable CacheCatalyst (baseline mode)")
	fs.BoolVar(&o.Metrics, "metrics", false, "expose counters, telemetry registry and recent requests at "+catalyst.MetricsPath)
	fs.BoolVar(&o.PProf, "pprof", false, "with -metrics, also mount net/http/pprof under /debug/pprof/")
	fs.BoolVar(&o.ServerTiming, "server-timing", false, "report per-request cache decisions in Server-Timing response headers")
	fs.IntVar(&o.MaxInflight, "max-inflight", 256, "max concurrent decorated requests (every proxied GET/HEAD; the HTML pages of -dir); excess degrade down the ladder (stale, passthrough, 503). 0 disables admission control")
	fs.DurationVar(&o.RequestBudget, "request-budget", 0, "wall-clock budget per request; probe fan-out stops when spent (0 disables)")
	fs.DurationVar(&o.ShutdownTimeout, "shutdown-timeout", 10*time.Second, "how long in-flight requests get to finish after SIGTERM before being force-closed")
	fs.Int64Var(&o.CacheBudget, "cache-budget", 0, "byte budget for the rendered-page cache; 0 selects the 16 MiB default, negative disables it")
	if err := fs.Parse(args); err != nil {
		return daemonOptions{}, err
	}
	if o.Metrics {
		o.AccessLogSize = 256
	}
	return o, nil
}

// builtHandler is what buildHandler assembles: the root handler, human
// lines for startup logging, and a drain hook for shutdown.
type builtHandler struct {
	Handler http.Handler
	Info    []string
	OnDrain func()
}

// buildHandler maps the daemon's options to a serving stack. Three modes,
// mutually exclusive in precedence order: -config (multi-tenant proxy),
// -origin (single-tenant proxy), -dir (file serving).
func buildHandler(opts daemonOptions, reg *telemetry.Registry) (*builtHandler, error) {
	switch {
	case opts.ConfigPath != "" && opts.Origin != "":
		return nil, fmt.Errorf("-config and -origin are mutually exclusive (put the single origin in the config file)")
	case opts.ConfigPath != "":
		cfg, err := tenant.LoadConfig(opts.ConfigPath)
		if err != nil {
			return nil, err
		}
		return buildConfigHandler(cfg, opts, reg)
	case opts.Origin != "":
		return buildProxyHandler(opts, reg)
	default:
		return buildServeHandler(opts, reg)
	}
}

// buildServeHandler is the original file-serving mode: -dir, behind the
// middleware (catalyst.NewServer) unless -plain.
func buildServeHandler(opts daemonOptions, reg *telemetry.Registry) (*builtHandler, error) {
	if _, err := os.Stat(opts.Dir); err != nil {
		return nil, err
	}
	if opts.Plain {
		content, err := server.NewFSContent(os.DirFS(opts.Dir), catalyst.DefaultPolicy)
		if err != nil {
			return nil, err
		}
		srv := server.New(content, server.Options{AccessLogSize: opts.AccessLogSize, Telemetry: reg, ServerTiming: opts.ServerTiming})
		info := fmt.Sprintf("serving %s (conventional caching)", opts.Dir)
		return &builtHandler{Handler: withMetrics(srv, opts, nil, reg), Info: []string{info}}, nil
	}
	h, err := catalyst.NewServer(os.DirFS(opts.Dir), catalyst.ServerOptions{
		Record: opts.Record, Policy: catalyst.DefaultPolicy, AccessLogSize: opts.AccessLogSize, Telemetry: reg,
		ServerTiming: opts.ServerTiming, MaxInflight: opts.MaxInflight, RequestBudget: opts.RequestBudget, MaxRenderBytes: opts.CacheBudget,
	})
	if err != nil {
		return nil, err
	}
	info := fmt.Sprintf("serving %s (CacheCatalyst%s)", opts.Dir, map[bool]string{true: " + recording", false: ""}[opts.Record])
	return &builtHandler{Handler: withMetrics(h, opts, nil, reg), Info: []string{info}}, nil
}

// buildProxyHandler is single-tenant proxy mode: one -origin fronted with
// the middleware over catalyst.NewUpstream's health-checked breaker. While
// the upstream flaps, the daemon serves the last good copy of each page
// instead of proxying errors.
func buildProxyHandler(opts daemonOptions, reg *telemetry.Registry) (*builtHandler, error) {
	u, err := url.Parse(opts.Origin)
	if err != nil {
		return nil, fmt.Errorf("-origin %q: %w", opts.Origin, err)
	}
	if u.Scheme == "" || u.Host == "" {
		return nil, fmt.Errorf("-origin %q: need an absolute URL (http://host:port)", opts.Origin)
	}
	proxy, breaker, stopHealth := catalyst.NewUpstream(u, "catalystd.", 0, reg)

	mwOpts := middlewareOptions(opts, reg)
	mwOpts.OriginBreaker = breaker
	handler := withMetrics(catalyst.Middleware(proxy, mwOpts), opts, nil, reg)
	info := fmt.Sprintf("proxying %s (CacheCatalyst + health-checked failover)", opts.Origin)
	return &builtHandler{Handler: handler, Info: []string{info}, OnDrain: stopHealth}, nil
}

// buildConfigHandler is multi-tenant proxy mode: catalyst.NewEdge over the
// config's tenants (and its cluster stanza, if any), behind -metrics.
func buildConfigHandler(cfg *tenant.Config, opts daemonOptions, reg *telemetry.Registry) (*builtHandler, error) {
	handler, drain, err := catalyst.NewEdge(cfg, middlewareOptions(opts, reg))
	if err != nil {
		return nil, err
	}
	names := make([]string, len(cfg.Tenants))
	for i, t := range cfg.Tenants {
		names[i] = t.Name
	}
	info := []string{fmt.Sprintf("fronting %d tenants (%s)", len(names), strings.Join(names, ", "))}
	if cfg.Cluster.Enabled() {
		info = append(info, fmt.Sprintf("cluster instance %q gossiping to %d peers", cfg.Cluster.Instance, len(cfg.Cluster.Peers)))
	}
	return &builtHandler{Handler: withMetrics(handler, opts, cfg, reg), Info: info, OnDrain: drain}, nil
}

// middlewareOptions maps the daemon's flags to the middleware's options, the
// same in every mode.
func middlewareOptions(opts daemonOptions, reg *telemetry.Registry) catalyst.MiddlewareOptions {
	return catalyst.MiddlewareOptions{
		Telemetry:      reg,
		ServerTiming:   opts.ServerTiming,
		MaxInflight:    opts.MaxInflight,
		RequestBudget:  opts.RequestBudget,
		MaxRenderBytes: opts.CacheBudget,
	}
}

// withMetrics mounts the -metrics surface in front of the daemon's handler.
func withMetrics(h http.Handler, opts daemonOptions, cfg *tenant.Config, reg *telemetry.Registry) http.Handler {
	if !opts.Metrics {
		return h
	}
	return catalyst.WithMetricsOptions(h, catalyst.MetricsOptions{
		Telemetry: reg, PProf: opts.PProf, Config: configEcho(opts, cfg),
	})
}

// configEcho is the effective configuration echoed under "config" at the
// metrics path, so scrapes record which knobs produced the counters they
// carry. In multi-tenant mode it includes the per-tenant settings.
func configEcho(opts daemonOptions, cfg *tenant.Config) map[string]any {
	echo := map[string]any{
		"cacheBudget": opts.CacheBudget,
		"maxInflight": opts.MaxInflight,
	}
	if cfg != nil {
		echo["tenants"] = cfg.Tenants
		if cfg.Cluster.Enabled() {
			echo["cluster"] = cfg.Cluster
		}
	}
	return echo
}
