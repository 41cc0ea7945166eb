// Per-request tracing: a request ID and span stack carried through
// context.Context, recording the cache-decision events the paper's
// evaluation attributes latency to — sw-hit, etag-match, revalidate, probe,
// network, stale-serve, breaker-open.
//
// The tracer is deliberately in-process and allocation-light: a layer that
// has no trace in its context pays one context lookup and nothing else.
// Cross-process (or cross-layer-boundary) propagation uses two standard
// HTTP headers: the request ID travels forward in X-Request-Id, and an
// origin reports the decisions it took back to the client in Server-Timing
// — the same channel real browsers surface in devtools — so an emulated
// browser can merge server-side decisions into its waterfall without
// sharing memory with the origin.
package telemetry

import (
	"context"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// RequestIDHeader carries the trace's request ID on forwarded requests.
const RequestIDHeader = "X-Request-Id"

// ServerTimingHeader is the response header an origin uses to report the
// cache decisions it took while serving a request (RFC 8941-style list of
// tokens). Browsers expose this header to devtools; the emulated browser
// merges it into FetchEvent.Decisions.
const ServerTimingHeader = "Server-Timing"

// TraceEvent is one recorded cache-decision event.
type TraceEvent struct {
	// At is the offset from the trace's start.
	At time.Duration `json:"at"`
	// Span is the dotted span path active when the event was recorded
	// ("load.fetch"), empty at the root.
	Span string `json:"span,omitempty"`
	// Name is the decision taken: sw-hit, etag-match, revalidate, probe,
	// network, stale-serve, breaker-open, ...
	Name string `json:"name"`
	// Detail identifies the subject, typically a resource key.
	Detail string `json:"detail,omitempty"`
}

// TraceSpan is one completed span.
type TraceSpan struct {
	// Path is the dotted span path, root first ("load.fetch.probe").
	Path string `json:"path"`
	// Start and End are offsets from the trace's start.
	Start time.Duration `json:"start"`
	End   time.Duration `json:"end"`
}

// Trace accumulates the events and spans of one request (or one page
// load). It is safe for concurrent use: middleware probe fan-out records
// from worker goroutines.
type Trace struct {
	// ID is the request ID, propagated via RequestIDHeader.
	ID string

	start time.Time
	mu    sync.Mutex
	evs   []TraceEvent
	spans []TraceSpan
}

// traceSeq numbers generated request IDs process-wide.
var traceSeq atomic.Int64

// NextRequestID returns a process-unique request ID.
func NextRequestID() string {
	return fmt.Sprintf("r%06d", traceSeq.Add(1))
}

// NewTrace returns an empty trace started now. An empty id selects a
// generated one.
func NewTrace(id string) *Trace {
	if id == "" {
		id = NextRequestID()
	}
	return &Trace{ID: id, start: time.Now()}
}

// Events returns a copy of the recorded events, in record order.
func (t *Trace) Events() []TraceEvent {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]TraceEvent(nil), t.evs...)
}

// Spans returns a copy of the completed spans, in completion order.
func (t *Trace) Spans() []TraceSpan {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]TraceSpan(nil), t.spans...)
}

// Decisions returns the recorded event names in order, with consecutive
// duplicates collapsed — the compact annotation HAR entries and waterfall
// bars carry.
func (t *Trace) Decisions() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]string, 0, len(t.evs))
	for _, ev := range t.evs {
		if n := len(out); n > 0 && out[n-1] == ev.Name {
			continue
		}
		out = append(out, ev.Name)
	}
	return out
}

// record appends one event.
func (t *Trace) record(span, name, detail string) {
	at := time.Since(t.start)
	t.mu.Lock()
	t.evs = append(t.evs, TraceEvent{At: at, Span: span, Name: name, Detail: detail})
	t.mu.Unlock()
}

// context keys.
type traceKey struct{}
type spanKey struct{}

// WithTrace attaches t to ctx.
func WithTrace(ctx context.Context, t *Trace) context.Context {
	return context.WithValue(ctx, traceKey{}, t)
}

// TraceFrom returns the trace attached to ctx, if any.
func TraceFrom(ctx context.Context) (*Trace, bool) {
	t, ok := ctx.Value(traceKey{}).(*Trace)
	return t, ok
}

// StartTrace returns ctx carrying a fresh trace (generated ID when id is
// empty) plus the trace itself. When ctx already carries a trace it is
// reused — one navigation is one trace however many layers re-enter.
func StartTrace(ctx context.Context, id string) (context.Context, *Trace) {
	if t, ok := TraceFrom(ctx); ok {
		return ctx, t
	}
	t := NewTrace(id)
	return WithTrace(ctx, t), t
}

// spanPath returns the dotted span path active in ctx.
func spanPath(ctx context.Context) string {
	p, _ := ctx.Value(spanKey{}).(string)
	return p
}

// StartSpan pushes a named span onto ctx's span stack and returns the new
// context plus an end function that records the completed span. Without a
// trace in ctx it is free: the same context and a no-op end come back.
func StartSpan(ctx context.Context, name string) (context.Context, func()) {
	t, ok := TraceFrom(ctx)
	if !ok {
		return ctx, func() {}
	}
	path := name
	if parent := spanPath(ctx); parent != "" {
		path = parent + "." + name
	}
	start := time.Since(t.start)
	ctx = context.WithValue(ctx, spanKey{}, path)
	return ctx, func() {
		end := time.Since(t.start)
		t.mu.Lock()
		t.spans = append(t.spans, TraceSpan{Path: path, Start: start, End: end})
		t.mu.Unlock()
	}
}

// Span is an in-flight span handle, the allocation-free alternative to
// StartSpan's end closure: the handle is a plain value, so
//
//	ctx, sp := telemetry.BeginSpan(ctx, "middleware")
//	defer sp.End()
//
// costs no heap allocation for the span scratch itself — with or without a
// trace attached. The zero Span is a valid no-op.
type Span struct {
	t     *Trace
	path  string
	start time.Duration
}

// BeginSpan pushes a named span onto ctx's span stack, like StartSpan, but
// returns a value handle instead of a closure. Without a trace in ctx it
// returns ctx unchanged and a no-op handle, touching nothing.
func BeginSpan(ctx context.Context, name string) (context.Context, Span) {
	t, ok := TraceFrom(ctx)
	if !ok {
		return ctx, Span{}
	}
	path := name
	if parent := spanPath(ctx); parent != "" {
		path = parent + "." + name
	}
	ctx = context.WithValue(ctx, spanKey{}, path)
	return ctx, Span{t: t, path: path, start: time.Since(t.start)}
}

// End records the completed span. No-op on a zero handle.
func (s Span) End() {
	if s.t == nil {
		return
	}
	end := time.Since(s.t.start)
	s.t.mu.Lock()
	s.t.spans = append(s.t.spans, TraceSpan{Path: s.path, Start: s.start, End: end})
	s.t.mu.Unlock()
}

// Event records a cache-decision event on ctx's trace, tagged with the
// active span path. Without a trace it is a no-op — instrumented layers
// never need to check first.
func Event(ctx context.Context, name, detail string) {
	if t, ok := TraceFrom(ctx); ok {
		t.record(spanPath(ctx), name, detail)
	}
}

// FormatServerTiming renders decision tokens as a Server-Timing header
// value ("etag-match, map-built"). Tokens must already be header-safe
// (lowercase letters, digits, hyphens — the shape every decision name in
// this repository has).
func FormatServerTiming(decisions []string) string {
	return strings.Join(decisions, ", ")
}

// AppendServerTiming adds decision tokens to h's Server-Timing header,
// preserving any existing entries (an origin behind a middleware reports
// both layers' decisions).
func AppendServerTiming(h http.Header, decisions ...string) {
	if len(decisions) == 0 {
		return
	}
	v := FormatServerTiming(decisions)
	if prev := h.Get(ServerTimingHeader); prev != "" {
		v = prev + ", " + v
	}
	h.Set(ServerTimingHeader, v)
}

// ParseServerTiming extracts the metric names from a Server-Timing header
// value, dropping any per-metric parameters (";dur=…").
func ParseServerTiming(v string) []string {
	if v == "" {
		return nil
	}
	parts := strings.Split(v, ",")
	out := make([]string, 0, len(parts))
	for _, p := range parts {
		name, _, _ := strings.Cut(strings.TrimSpace(p), ";")
		name = strings.TrimSpace(name)
		if name != "" {
			out = append(out, name)
		}
	}
	return out
}
