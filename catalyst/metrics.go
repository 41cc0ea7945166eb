package catalyst

import (
	"cmp"
	"encoding/json"
	"net/http"
	"net/http/pprof"

	"cachecatalyst/internal/server"
	"cachecatalyst/internal/telemetry"
)

// MetricsPath is the path WithMetricsOptions serves the snapshot at.
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

// WithMetricsOptions wraps next so that MetricsPath serves a JSON snapshot —
// the registry's instruments under "telemetry" and, when next is a
// *server.Server or NewServer's handler in front of one built with
// ServerOptions.AccessLogSize, the recent requests — while every other
// request reaches next; MetricsOptions.PProf mounts the pprof handlers.
// cmd/catalystd uses this behind its -metrics flag, in every mode: with a
// reverse proxy behind the middleware the payload is registry plus config
// alone.
func WithMetricsOptions(next http.Handler, opts MetricsOptions) http.Handler {
	srv, _ := next.(*server.Server)
	if m, ok := next.(*middleware); ok && m.content != nil {
		srv = m.content.srv
	}
	var recent func() []server.AccessEntry
	if srv != nil {
		recent = srv.RecentRequests
		opts.Telemetry = cmp.Or(opts.Telemetry, srv.Telemetry())
	}
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
	// encoded map within core.MaxEncodedMapBytes (encodeMap).
	MapEntriesDropped telemetry.Counter
	// MapsBuilt counts HTML responses whose X-Etag-Config a resolve
	// assembled, and MapBytes their encoded wire bytes: MapBytes ÷ MapsBuilt
	// is the mean header cost the ablation benchmarks quantify.
	MapsBuilt telemetry.Counter
	MapBytes  telemetry.Counter
	// EncodeReuses counts HTML responses that reused the render's slotted
	// X-Etag-Config encoding because every lookup its evidence names still
	// answers the recorded tag (resolved.verify). With MapsBuilt
	// and HotMapHits it adds up to the decorated HTML responses.
	EncodeReuses telemetry.Counter
	// MapSheds counts requests the admission gate refused; each also lands
	// on one ladder rung below.
	MapSheds telemetry.Counter
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

// register indexes the counters in reg under prefix: "middleware." in front
// of a handler, "server." in front of a *server.Server, where EncodeReuses
// keeps the name the server's own counter had.
func (m *middlewareMetrics) register(reg *telemetry.Registry, prefix, reuses string) {
	for name, c := range map[string]*telemetry.Counter{
		"panics_recovered": &m.PanicsRecovered, "breaker_trips": &m.BreakerTrips, "map_entries_dropped": &m.MapEntriesDropped,
		"maps_built": &m.MapsBuilt, "map_bytes": &m.MapBytes, reuses: &m.EncodeReuses, "map_sheds": &m.MapSheds,
		"ladder_stale": &m.LadderStale, "ladder_passthrough": &m.LadderPassthrough, "ladder_rejected": &m.LadderRejected,
		"budget_exhausted": &m.BudgetExhausted, "hotmap_hits": &m.HotMapHits,
		"probe_revalidated": &m.ProbeRevalidated, "probe_fetched": &m.ProbeFetched,
		"page_revalidated": &m.PageRevalidated, "page_fetched": &m.PageFetched,
	} {
		reg.RegisterCounter(prefix+name, c)
	}
}
