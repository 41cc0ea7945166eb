package main

import (
	"fmt"
	"strings"
)

// counters is the daemons' drain snapshots folded together: same-named
// counters summed over daemons, and per-tenant instruments
// ("tenant.<name>.probes.hits") folded onto the single-tenant name
// ("middleware.probes.hits") so one formula reads both proxy modes.
type counters map[string]float64

func foldCounters(snaps []snapshot) counters {
	c := counters{}
	for _, s := range snaps {
		for name, v := range s.Counters {
			c[name] += float64(v)
			if rest, ok := strings.CutPrefix(name, "tenant."); ok {
				if i := strings.IndexByte(rest, '.'); i >= 0 && rest[i+1:] != "requests" {
					c["middleware."+rest[i+1:]] += float64(v)
				}
			}
		}
	}
	return c
}

// sumSuffix adds every counter whose name ends in suffix.
func (c counters) sumSuffix(suffix string) float64 {
	var total float64
	for name, v := range c {
		if strings.HasSuffix(name, suffix) && !strings.HasPrefix(name, "tenant.") {
			total += v
		}
	}
	return total
}

func pct(part, whole float64) float64 {
	if whole == 0 {
		return 0
	}
	return 100 * part / whole
}

func per(total, n float64) float64 {
	if n == 0 {
		return 0
	}
	return total / n
}

// counterMetrics derives the ledger's C metrics from the daemons' own
// counters. The counters cover a daemon's whole life, warm-up included, so
// every ratio here has numerator and denominator from the same snapshot;
// only origin_fetches_per_op, which the bench origin counts itself, is
// taken over the measured phase alone.
func counterMetrics(c counters, m measured, lifetimeOps int64) map[string]float64 {
	out := map[string]float64{}

	// internal/server: one render-cache lookup per HTML response.
	srvHTML := c["server.renders.hits"] + c["server.renders.loads"]
	out["server.render_hit_pct"] = pct(c["server.renders.hits"], srvHTML)
	out["server.maps_built_per_html"] = per(c["server.maps_built"], srvHTML)
	out["server.map_bytes_per_html"] = per(c["server.map_bytes"], c["server.maps_built"])
	out["server.map_sheds"] = c["server.map_sheds"]

	// catalyst.Middleware: the hot index sees every HTML response; a
	// render load is a page it had to parse.
	mwHTML := c["middleware.hot.hits"] + c["middleware.hot.misses"]
	if mwHTML > 0 {
		out["catalyst.render_hit_pct"] = 100 - pct(c["middleware.renders.loads"], mwHTML)
	}
	out["catalyst.probe_hit_pct"] = pct(c["middleware.probes.hits"], c["middleware.probes.hits"]+c["middleware.probes.loads"])
	out["catalyst.encode_reuse_pct"] = pct(c["middleware.encode_reuses"], mwHTML)
	out["catalyst.hotmap_hit_pct"] = pct(c["middleware.hotmap_hits"], mwHTML)
	shed := c["middleware.ladder_stale"] + c["middleware.ladder_passthrough"] + c["middleware.ladder_rejected"]
	out["catalyst.ladder_shed_pct"] = pct(shed, c["middleware.gate.admitted"]+shed)
	out["catalyst.origin_fetches_per_op"] = per(float64(m.originReqs), float64(m.phase.ok()))

	out["cachestore.evictions_per_kop"] = 1000 * per(c.sumSuffix(".evictions"), float64(lifetimeOps))
	out["cachestore.admission_rejects"] = c.sumSuffix(".admission_rejects")

	out["tenant.unrouted"] = c["tenant.unrouted.requests"]
	out["cluster.published"] = c["cluster.published"]
	out["cluster.adopted_pct"] = pct(c["cluster.hotmaps.hits"], c["cluster.hotmaps.hits"]+c["cluster.hotmaps.misses"])
	out["cluster.dropped"] = c["cluster.dropped"]
	out["resilience.gate_shed"] = c.sumSuffix(".gate.shed_full") + c.sumSuffix(".gate.shed_timeout")
	return out
}

// stressNotes says, from the daemon's own counters, whether the workload
// stressed what it claims to. A later PR may legitimately move one of these
// (a better render cache raises page_churn's hit ratio), so they inform a
// reader and do not fail a run.
func stressNotes(workload string, raw counters, c map[string]float64, notModifiedPct float64) []string {
	var notes []string
	expect := func(ok bool, format string, args ...any) {
		verdict := "as claimed"
		if !ok {
			verdict = "NOT as claimed"
		}
		notes = append(notes, fmt.Sprintf("%s: %s", verdict, fmt.Sprintf(format, args...)))
	}
	switch workload {
	case "static_revalidate":
		expect(raw["server.maps_built"] == 0, "no HTML code runs (server.maps_built = %.0f)", raw["server.maps_built"])
		expect(notModifiedPct >= 85, "mostly revalidations (%.1f%% of responses are 304)", notModifiedPct)
	case "page_warm":
		expect(c["server.render_hit_pct"] >= 99, "served from the render cache (server.render_hit_pct = %.2f)", c["server.render_hit_pct"])
	case "page_churn":
		expect(c["catalyst.render_hit_pct"] <= 70, "working set exceeds the render cache (catalyst.render_hit_pct = %.1f)", c["catalyst.render_hit_pct"])
		expect(c["cachestore.evictions_per_kop"] > 0, "caches evict (cachestore.evictions_per_kop = %.0f)", c["cachestore.evictions_per_kop"])
	case "edge_tenants":
		expect(c["cluster.adopted_pct"] > 0, "peers adopt gossiped maps (cluster.adopted_pct = %.1f)", c["cluster.adopted_pct"])
		expect(c["tenant.unrouted"] == 0, "every request resolves to a tenant (tenant.unrouted = %.0f)", c["tenant.unrouted"])
		served := 0
		for _, t := range tenantNames {
			if raw["tenant."+t+".requests"] > 0 {
				served++
			}
		}
		expect(served == len(tenantNames), "all tenants served (%d of %d)", served, len(tenantNames))
	}
	expect(c["catalyst.ladder_shed_pct"] == 0 && c["resilience.gate_shed"] == 0 && c["server.map_sheds"] == 0,
		"nothing shed (ladder %.2f%%, gate %.0f, map %.0f)", c["catalyst.ladder_shed_pct"], c["resilience.gate_shed"], c["server.map_sheds"])
	return notes
}
