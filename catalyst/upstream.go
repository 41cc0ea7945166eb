package catalyst

import (
	"net/http"
	"net/http/httputil"
	"net/url"
	"sync"
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

// NewUpstreamProxy is the one assembly of the middleware's upstream leg —
// what catalystd puts behind -origin and behind every -config tenant: a
// single-host reverse proxy over a transport of its own, whose idle pool
// covers the probe fan-out (upstreamIdleConns), with pooled copy buffers. A
// dead upstream becomes a silent 502 the middleware can hold back in favor
// of a stale copy; the default error handler would also log every failure,
// which under a brown-out is pure noise.
//
// closeIdle releases the pooled sockets (and the two goroutines each one
// parks); call it once the upstream is drained.
func NewUpstreamProxy(u *url.URL) (proxy *httputil.ReverseProxy, closeIdle func()) {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConns = upstreamIdleConns
	tr.MaxIdleConnsPerHost = upstreamIdleConns
	proxy = httputil.NewSingleHostReverseProxy(u)
	proxy.Transport = tr
	proxy.BufferPool = &upstreamBuffers
	proxy.ErrorHandler = func(w http.ResponseWriter, r *http.Request, err error) {
		w.WriteHeader(http.StatusBadGateway)
	}
	return proxy, tr.CloseIdleConnections
}
