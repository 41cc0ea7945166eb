package catalyst

import (
	"encoding/json"
	"net/http"
	"net/http/pprof"

	"cachecatalyst/internal/server"
	"cachecatalyst/internal/telemetry"
)

// MetricsPath is the path WithMetricsOptions and WithMetricsHandler serve
// the snapshot at.
const MetricsPath = "/debug/catalystd"

// MetricsOptions configures WithMetricsOptions.
type MetricsOptions struct {
	// Telemetry adds the registry's full snapshot — every instrument any
	// layer registered — under "telemetry" in the MetricsPath JSON. Nil
	// falls back to the registry the server was constructed with, if any.
	Telemetry *telemetry.Registry
	// PProf additionally mounts the standard net/http/pprof handlers
	// under /debug/pprof/. Off by default: profiling endpoints on a
	// production port are opt-in.
	PProf bool
	// Config, when set, is echoed verbatim under "config" in the
	// MetricsPath JSON — the daemon's effective settings (cache policy,
	// budgets), so a scrape shows which knobs produced the counters
	// next to them.
	Config any
}

// WithMetricsOptions wraps srv so that MetricsPath serves a JSON snapshot —
// the registry's instruments under "telemetry" and, when
// ServerOptions.AccessLogSize was set, the recent requests — while every
// other request reaches the site; MetricsOptions.PProf mounts the pprof
// handlers. cmd/catalystd uses this behind its -metrics flag.
func WithMetricsOptions(srv *server.Server, opts MetricsOptions) http.Handler {
	if opts.Telemetry == nil {
		opts.Telemetry = srv.Telemetry()
	}
	return metricsMux(srv, srv.RecentRequests, opts)
}

// WithMetricsHandler is WithMetricsOptions for deployments with no
// *server.Server behind the middleware — catalystd's proxy modes, where
// the inner handler is a reverse proxy. The MetricsPath JSON carries the
// registry snapshot and the echoed config, and PProf mounts the same
// pprof surface, so a proxy-mode daemon is observable exactly like a
// file-serving one.
func WithMetricsHandler(next http.Handler, opts MetricsOptions) http.Handler {
	return metricsMux(next, nil, opts)
}

// metricsMux mounts the MetricsPath JSON (and optionally pprof) in front
// of next. Every counter comes from the registry; recent, when non-nil,
// adds the server's recent-request ring. Proxy mode passes nil and the
// payload is registry plus config alone.
func metricsMux(next http.Handler, recent func() []server.AccessEntry, opts MetricsOptions) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc(MetricsPath, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Cache-Control", "no-store")
		payload := struct {
			Recent    []server.AccessEntry `json:"recent,omitempty"`
			Config    any                  `json:"config,omitempty"`
			Telemetry *telemetry.Snapshot  `json:"telemetry,omitempty"`
		}{Config: opts.Config}
		if recent != nil {
			payload.Recent = recent()
		}
		if opts.Telemetry != nil {
			snap := opts.Telemetry.Snapshot()
			payload.Telemetry = &snap
		}
		if err := json.NewEncoder(w).Encode(payload); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	if opts.PProf {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	mux.Handle("/", next)
	return mux
}

// middlewareMetrics is the middleware's own counters. All fields are atomic
// telemetry counters, safe to read while serving, and a registry passed in
// MiddlewareOptions.Telemetry indexes this same storage.
type middlewareMetrics struct {
	// PanicsRecovered counts inner-handler panics converted to 500s.
	PanicsRecovered telemetry.Counter
	// BreakerTrips counts per-path probe circuit breakers opening after
	// repeated probe failures.
	BreakerTrips telemetry.Counter
	// MapEntriesDropped counts X-Etag-Config entries removed to keep the
	// encoded map within core.MaxEncodedMapBytes (decorate.EncodeMap).
	MapEntriesDropped telemetry.Counter
	// EncodeReuses counts HTML responses that reused the render's slotted
	// X-Etag-Config encoding because every probe its evidence names is
	// still held, unexpired and answering the recorded tag
	// (decorate.Resolved.Verify).
	EncodeReuses telemetry.Counter
	// LadderStale counts responses served from the stale cache (with a
	// Warning 110 header) because full service was refused — admission
	// shed, open origin breaker, inner-handler 5xx, or panic.
	LadderStale telemetry.Counter
	// LadderPassthrough counts shed requests served by running the inner
	// handler un-instrumented: no probing, no map, no snippet.
	LadderPassthrough telemetry.Counter
	// LadderRejected counts requests answered 503 + Retry-After, the
	// degradation ladder's bottom rung.
	LadderRejected telemetry.Counter
	// BudgetExhausted counts HTML responses delivered un-decorated
	// because the request's deadline budget ran out before map assembly.
	BudgetExhausted telemetry.Counter
	// HintsSent counts 103 Early Hints responses emitted ahead of HTML
	// (MiddlewareOptions.EarlyHints).
	HintsSent telemetry.Counter
	// DeltasServed counts HTML responses answered with a CCD1 patch
	// against the client's named base instead of the full body;
	// DeltaBytesSaved accumulates body bytes avoided that way.
	DeltasServed    telemetry.Counter
	DeltaBytesSaved telemetry.Counter
	// HotMapHits counts HTML responses whose X-Etag-Config was adopted
	// from a cluster peer's published encoding (MiddlewareOptions.Exchange)
	// instead of being assembled by a local probe fan-out.
	HotMapHits telemetry.Counter
	// ProbeRevalidated counts subresource probes the inner handler answered
	// 304 to the tag the probe cache held (no body produced); ProbeFetched
	// counts probes answered with a full 200. Failed probes count as neither.
	ProbeRevalidated telemetry.Counter
	ProbeFetched     telemetry.Counter
	// PageRevalidated counts page fetches the inner handler answered 304 to
	// the validator of the page the render cache held, which was then served
	// from its held render; PageFetched counts page fetches answered with a
	// full 200 HTML body.
	PageRevalidated telemetry.Counter
	PageFetched     telemetry.Counter
}

// register indexes the counters in reg under "middleware.*".
func (m *middlewareMetrics) register(reg *telemetry.Registry) {
	reg.RegisterCounter("middleware.panics_recovered", &m.PanicsRecovered)
	reg.RegisterCounter("middleware.breaker_trips", &m.BreakerTrips)
	reg.RegisterCounter("middleware.map_entries_dropped", &m.MapEntriesDropped)
	reg.RegisterCounter("middleware.encode_reuses", &m.EncodeReuses)
	reg.RegisterCounter("middleware.ladder_stale", &m.LadderStale)
	reg.RegisterCounter("middleware.ladder_passthrough", &m.LadderPassthrough)
	reg.RegisterCounter("middleware.ladder_rejected", &m.LadderRejected)
	reg.RegisterCounter("middleware.budget_exhausted", &m.BudgetExhausted)
	reg.RegisterCounter("middleware.hints_sent", &m.HintsSent)
	reg.RegisterCounter("middleware.deltas_served", &m.DeltasServed)
	reg.RegisterCounter("middleware.delta_bytes_saved", &m.DeltaBytesSaved)
	reg.RegisterCounter("middleware.hotmap_hits", &m.HotMapHits)
	reg.RegisterCounter("middleware.probe_revalidated", &m.ProbeRevalidated)
	reg.RegisterCounter("middleware.probe_fetched", &m.ProbeFetched)
	reg.RegisterCounter("middleware.page_revalidated", &m.PageRevalidated)
	reg.RegisterCounter("middleware.page_fetched", &m.PageFetched)
}
