package main

import (
	"context"
	"fmt"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"cachecatalyst/catalyst"
	"cachecatalyst/internal/cluster"
	"cachecatalyst/internal/telemetry"
	"cachecatalyst/internal/tenant"
)

// The in-process replay: the workload's seeded request sequence driven
// through a handler stack built with the public constructors the daemon
// uses, once untraced and once with a span around every request and around
// every call the stack makes into the bench's inner handler. It times
// layers, not the daemon: flag wiring, the reverse proxy and the kernel are
// only in the child-process runs.

// daemonMaxInflight mirrors catalystd's -max-inflight default, the one
// daemon default that changes which code a request runs through.
const daemonMaxInflight = 256

// replayRequests is how many requests each replay pass of the traced run
// drives.
const replayRequests = 2000

// stack is a handler under replay, over its content.
type stack struct {
	content
	handler http.Handler
	origin  *origin // nil for the Content-backed server
	close   func()
}

// discardWriter is the cheapest ResponseWriter that still lets a handler
// behave normally: headers are kept, the body is counted.
type discardWriter struct {
	h      http.Header
	status int
	n      int
}

func (w *discardWriter) Header() http.Header { return w.h }
func (w *discardWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
}
func (w *discardWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	w.n += len(p)
	return len(p), nil
}

func (w *discardWriter) reset() {
	for k := range w.h {
		delete(w.h, k)
	}
	w.status, w.n = 0, 0
}

func newRequest(rq request) *http.Request {
	r := &http.Request{
		Method:     http.MethodGet,
		URL:        &url.URL{Path: rq.res.path},
		Proto:      "HTTP/1.1",
		ProtoMajor: 1,
		ProtoMinor: 1,
		Header:     http.Header{},
		Host:       rq.host,
		RequestURI: rq.res.path,
		RemoteAddr: "127.0.0.1:1",
	}
	if rq.inm != "" {
		r.Header.Set("If-None-Match", rq.inm)
	}
	return r.WithContext(context.Background())
}

// buildStack assembles the workload's handler stack over content generated
// the way the measured run generates it.
func buildStack(w *workload, c content, tmp string) (*stack, error) {
	reg := telemetry.NewRegistry()
	st := &stack{content: c, close: func() {}}
	switch w.name {
	case "static_revalidate", "page_warm":
		dir := filepath.Join(tmp, "replay-site")
		if err := materialize(c.sites[0], dir); err != nil {
			return nil, err
		}
		srv, err := catalyst.NewServer(os.DirFS(dir), catalyst.ServerOptions{
			Policy: catalyst.DefaultPolicy, Telemetry: reg, MaxInflight: daemonMaxInflight,
		})
		if err != nil {
			return nil, err
		}
		st.handler = srv

	case "page_churn":
		st.origin = newOrigin(c.sites...)
		st.handler = catalyst.Middleware(st.origin, catalyst.MiddlewareOptions{Telemetry: reg, MaxInflight: daemonMaxInflight})

	case "edge_tenants":
		var tenants []*tenant.Tenant
		for _, name := range tenantNames {
			tenants = append(tenants, &tenant.Tenant{Name: name, Upstream: "http://origin.invalid", Hosts: []string{tenantHost(name)}})
		}
		resolver, err := tenant.NewResolver(tenants)
		if err != nil {
			return nil, err
		}
		st.origin = newOrigin(c.sites...)
		exch := cluster.NewExchange(cluster.ExchangeOptions{Instance: edgeInstances[0], Telemetry: reg})
		mw := catalyst.Middleware(st.origin, catalyst.MiddlewareOptions{Telemetry: reg, MaxInflight: daemonMaxInflight, Exchange: exch})
		st.handler = exch.Mount(tenant.Handler(resolver, reg, mw))
		st.close = exch.Close

	default:
		return nil, fmt.Errorf("no replay stack for %s", w.name)
	}
	return st, nil
}

// replayStats is what the two replay passes yield.
type replayStats struct {
	untracedPerOp time.Duration
	tracedPerOp   time.Duration
	allocsPerOp   float64
	// Per traced request, in order:
	reqSpans []int // span index
	html     []bool
	status   []int
	children []int // calls into the inner handler
}

// replay drives the stack with the workload's sequence: a warm-up of n/4
// requests, an untraced pass of n that gives the per-request cost and
// allocations, and a traced pass of n. Passes continue one sequence, as
// phases of a real run do.
func replay(st *stack, seed int64, tr *tracer, n int) (replayStats, error) {
	var stats replayStats
	c := newConn(0, seed, nil)
	w := &discardWriter{h: http.Header{}}
	serve := func(rq request) error {
		if st.tick != nil {
			st.tick()
		}
		w.reset()
		st.handler.ServeHTTP(w, newRequest(rq))
		return c.check(rq, w.status, w.h, w.n)
	}
	pass := func(n int, each func(rq request) error) (time.Duration, error) {
		if n < 1 {
			n = 1
		}
		start := time.Now()
		for i := 0; i < n; i++ {
			if err := each(st.tr.next(c)); err != nil {
				return 0, err
			}
		}
		return time.Since(start) / time.Duration(n), nil
	}
	if _, err := pass(n/4, serve); err != nil {
		return stats, fmt.Errorf("replay warm-up: %w", err)
	}

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	per, err := pass(n, serve)
	if err != nil {
		return stats, fmt.Errorf("untraced replay: %w", err)
	}
	runtime.ReadMemStats(&m1)
	stats.untracedPerOp = per
	stats.allocsPerOp = float64(m1.Mallocs-m0.Mallocs) / float64(n)

	// Traced pass: the inner handler records a child span under whichever
	// request is being replayed; the replay is sequential, so "the current
	// request" is unambiguous even when probes arrive from a fan-out.
	var cur, curReq = -1, int64(0)
	var kids int
	if st.origin != nil {
		st.origin.onServe = func(path string, serveInner func()) {
			i := tr.begin("origin.serve", cur, curReq)
			serveInner()
			tr.end(i)
			tr.mu.Lock()
			kids++
			tr.mu.Unlock()
		}
		defer func() { st.origin.onServe = nil }()
	}
	per, err = pass(n, func(rq request) error {
		if st.tick != nil {
			st.tick()
		}
		w.reset()
		req := newRequest(rq)
		curReq++
		kids = 0
		cur = tr.begin(spanName(st), -1, curReq)
		st.handler.ServeHTTP(w, req)
		tr.end(cur)
		stats.reqSpans = append(stats.reqSpans, cur)
		stats.html = append(stats.html, rq.res.html)
		stats.status = append(stats.status, w.status)
		stats.children = append(stats.children, kids)
		return c.check(rq, w.status, w.h, w.n)
	})
	if err != nil {
		return stats, fmt.Errorf("traced replay: %w", err)
	}
	stats.tracedPerOp = per
	return stats, nil
}

// spanName names a request span after the stack's front layer.
func spanName(st *stack) string {
	if st.origin == nil {
		return "server.request"
	}
	return "catalyst.request"
}
