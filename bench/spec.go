package main

// metricDef is one named metric. The end-to-end ones and their bounds are
// mirrored in BENCHMARK.json; a test holds the two together.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the system sees, reported by every
// workload's untraced run. Bound is the share of the parent's median a
// metric may worsen by before a change counts as a regression. The timing
// bounds are as wide as the contract allows because the shared 2-vCPU box
// the benchmark was sized on moves identical runs by 6% (inter-quartile,
// quiet minutes) to 25% (busy minutes); README.md has the measurements.
// Claims of a gain do not lean on the bound but on the paired-run rule.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"throughput_rps", "1/s", "higher", 0.25},
	{"cpu_us_per_op", "us", "lower", 0.25},
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"rss_mib", "MiB", "lower", 0.15},
}

func lower(name, unit string) metricDef  { return metricDef{Name: name, Unit: unit, Better: "lower"} }
func higher(name, unit string) metricDef { return metricDef{Name: name, Unit: unit, Better: "higher"} }

// perLayer is the ledger of the traced run. Sources: C, the daemons'
// counters from the drain snapshot of a normal (untraced) phase; R, the
// in-process replay with a span around each call into the layer's public
// functions; G, the generator. README.md says which end-to-end metric each
// is expected to move, on which workload.
var perLayer = []metricDef{
	// server (catalystd -dir)
	lower("server.html_ns", "ns"),
	lower("server.static200_ns", "ns"),
	lower("server.static304_ns", "ns"),
	lower("server.html_allocs_per_op", "count"),
	higher("server.render_hit_pct", "%"),
	lower("server.maps_built_per_html", "count"),
	lower("server.map_bytes_per_html", "B"),
	lower("server.map_sheds", "count"),
	// catalyst (middleware and client)
	lower("catalyst.mw_warm_ns", "ns"),
	lower("catalyst.mw_cold_ns", "ns"),
	lower("catalyst.mw_allocs_per_op", "count"),
	lower("catalyst.probe_calls_per_page", "count"),
	lower("catalyst.client_get_ns", "ns"),
	higher("catalyst.render_hit_pct", "%"),
	higher("catalyst.probe_hit_pct", "%"),
	higher("catalyst.encode_reuse_pct", "%"),
	higher("catalyst.hotmap_hit_pct", "%"),
	lower("catalyst.ladder_shed_pct", "%"),
	lower("catalyst.origin_fetches_per_op", "count"),
	// core
	lower("core.extract_ns", "ns"),
	lower("core.resolve_ns", "ns"),
	lower("core.encode_ns", "ns"),
	lower("core.encode_bytes", "B"),
	lower("core.decode_ns", "ns"),
	lower("core.decide_ns", "ns"),
	lower("core.inject_ns", "ns"),
	// parsers
	lower("htmlparse.parse_ns_per_kb", "ns"),
	lower("htmlparse.extract_ns_per_kb", "ns"),
	lower("cssparse.extract_ns_per_kb", "ns"),
	// etag
	lower("etag.nonematch_ns", "ns"),
	lower("etag.forbytes_ns_per_kb", "ns"),
	// cachestore
	lower("cachestore.get_hit_ns", "ns"),
	lower("cachestore.put_ns", "ns"),
	lower("cachestore.put_evict_ns", "ns"),
	lower("cachestore.mixed_ns", "ns"),
	higher("cachestore.replay_hit_pct", "%"),
	lower("cachestore.evictions_per_kop", "count"),
	lower("cachestore.admission_rejects", "count"),
	// delta
	lower("delta.diff_ns_per_kb", "ns"),
	lower("delta.apply_ns_per_kb", "ns"),
	lower("delta.patch_ratio_pct", "%"),
	// tenant
	lower("tenant.resolve_ns", "ns"),
	lower("tenant.handler_ns", "ns"),
	lower("tenant.unrouted", "count"),
	// cluster
	lower("cluster.ring_owner_ns", "ns"),
	lower("cluster.publish_ns", "ns"),
	lower("cluster.lookup_ns", "ns"),
	higher("cluster.published", "count"),
	higher("cluster.adopted_pct", "%"),
	lower("cluster.dropped", "count"),
	// resilience, telemetry
	lower("resilience.gate_ns", "ns"),
	lower("telemetry.observe_ns", "ns"),
	lower("resilience.gate_shed", "count"),
	// client half (simulator)
	lower("browser.load_catalyst_us", "us"),
	lower("browser.load_conventional_us", "us"),
	lower("browser.net_requests_per_load", "count"),
	lower("browser.validations304_per_load", "count"),
	lower("sw.handlefetch_ns", "ns"),
	higher("sw.local_hit_pct", "%"),
	lower("httpcache.get_ns", "ns"),
	lower("webgen.generate_ms_per_site", "ms"),
	// the paper's result, deterministic per seed (plt_sweep)
	higher("plt.reduction_5g_pct", "%"),
	higher("plt.reduction_grid_pct", "%"),
	lower("plt.warm_reqs_per_load", "count"),
	// generator and wire
	lower("gen.cpu_us_per_op", "us"),
	lower("gen.resp_bytes_per_op", "B"),
	higher("gen.not_modified_pct", "%"),
	lower("gen.open_p50_ms", "ms"),
	lower("gen.open_p99_ms", "ms"),
	lower("gen.open_tail_ms", "ms"),
	higher("gen.open_tail_pct", "%"),
	lower("gen.late_p99_ms", "ms"),
	lower("trace.overhead_pct", "%"),
}

var units = func() map[string]string {
	m := map[string]string{}
	for _, d := range endToEnd {
		m[d.Name] = d.Unit
	}
	for _, d := range perLayer {
		m[d.Name] = d.Unit
	}
	return m
}()

func unitOf(name string) string { return units[name] }
