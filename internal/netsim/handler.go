package netsim

import (
	"net/http"
	"time"
)

// HandlerFromOrigin adapts a simulator Origin to a real http.Handler, the
// inverse of server.NewOrigin. It is how the chaos matrix runs
// against real net/http serving: wrap a ChaosOrigin and every fault mode
// — 503s, truncations, stalls, brown-outs — happens on a live connection.
//
// Virtual-time faults become wall-clock behavior: a stall sleeps for
// real, but cancellation-aware — the moment the request context is
// cancelled (client gone, deadline hit, server draining) the sleep
// aborts and the handler returns without writing, instead of holding a
// connection slot for the full stall. A truncation writes the partial
// body and then aborts the connection mid-response via
// http.ErrAbortHandler, which is what a reset looks like to the client.
func HandlerFromOrigin(o Origin) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req := &Request{
			Method: r.Method,
			Path:   r.URL.RequestURI(),
			Header: r.Header,
			Ctx:    r.Context(),
		}
		if s, ok := o.(Stalling); ok {
			if d := s.StallFor(req); d > 0 && !sleepOrCancel(r, d) {
				panic(http.ErrAbortHandler)
			}
		}
		resp := o.RoundTrip(req)
		h := w.Header()
		for k, vs := range resp.Header {
			h[k] = vs
		}
		w.WriteHeader(resp.StatusCode)
		if r.Method == http.MethodHead {
			return
		}
		_, _ = w.Write(resp.Body)
		if resp.Truncated {
			// The simulator marks the body as already cut; over a real
			// connection the equivalent is a reset after the prefix.
			if f, ok := w.(http.Flusher); ok {
				f.Flush()
			}
			panic(http.ErrAbortHandler)
		}
	})
}

// sleepOrCancel sleeps d of wall-clock time, aborting early when the
// request's context is cancelled. Reports whether the full sleep ran.
func sleepOrCancel(r *http.Request, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-r.Context().Done():
		return false
	}
}
