package catalyst

import (
	"reflect"
	"slices"
	"testing"

	"cachecatalyst/internal/cachestore"
	"cachecatalyst/internal/cluster"
	"cachecatalyst/internal/core"
	"cachecatalyst/internal/resilience"
	"cachecatalyst/internal/server"
)

// TestOptionCensus pins the exported fields of every options struct on the
// serving path and in the cache layer, each beside the non-test program that
// sets it. A value no program sets is a constant instead (DESIGN.md, "Frozen
// values"), so a new field fails here until it is listed with its setter.
func TestOptionCensus(t *testing.T) {
	census := []struct {
		typ    reflect.Type
		fields []string
	}{
		{reflect.TypeOf(MiddlewareOptions{}), []string{
			"MaxRenderBytes", // cmd/catalystd (-cache-budget), catalyst.NewServer
			"Telemetry",      // cmd/catalystd, bench
			"MaxInflight",    // cmd/catalystd (-max-inflight), catalyst.NewServer, bench
			"RequestBudget",  // cmd/catalystd (-request-budget), catalyst.NewServer
			"OriginBreaker",  // cmd/catalystd (proxy mode's health-checked breaker)
			"ServerTiming",   // cmd/catalystd (-server-timing)
			"Exchange",       // catalyst.NewEdge (its config's "cluster"), bench
		}},
		{reflect.TypeOf(ServerOptions{}), []string{
			"Record",         // cmd/catalystd (-record)
			"Policy",         // cmd/catalystd, bench
			"AccessLogSize",  // cmd/catalystd
			"Telemetry",      // cmd/catalystd, bench
			"ServerTiming",   // cmd/catalystd (-server-timing)
			"MaxInflight",    // cmd/catalystd (-max-inflight), bench
			"RequestBudget",  // cmd/catalystd (-request-budget)
			"MaxRenderBytes", // cmd/catalystd (-cache-budget)
		}},
		{reflect.TypeOf(server.Options{}), []string{
			"Record",          // catalyst.NewServer, internal/harness
			"CrossOriginETag", // internal/harness (catalyst-full)
			"Clock",           // internal/harness (virtual clock)
			"AccessLogSize",   // catalyst.NewServer, cmd/catalystd (-plain)
			"Telemetry",       // catalyst.NewServer, cmd/catalystd (-plain)
			"ServerTiming",    // catalyst.NewServer, cmd/catalystd (-plain), cmd/timeline
			"EarlyHints",      // internal/harness (early-hints scheme)
		}},
		{reflect.TypeOf(core.BuildOptions{}), []string{
			"CrossOriginETag", // catalyst.Middleware (in front of a server.Server)
			"Concurrency",     // catalyst.Middleware (the probe fan-out; a server's content resolve)
		}},
		{reflect.TypeOf(resilience.GateOptions{}), []string{
			"MaxInflight", // catalyst.Middleware, bench
			"Telemetry",   // catalyst.Middleware
			"Name",        // catalyst.Middleware
		}},
		{reflect.TypeOf(cluster.ExchangeOptions{}), []string{
			"Instance",  // catalyst.NewEdge (its config's "cluster"), bench
			"Peers",     // catalyst.NewEdge (its config's "cluster"), bench
			"Telemetry", // catalyst.NewEdge, bench
		}},
		{reflect.TypeOf(resilience.BreakerOptions{}), []string{
			"Telemetry", // catalyst.NewUpstream
			"Name",      // catalyst.NewUpstream
		}},
		{reflect.TypeOf(resilience.ServeOptions{}), []string{
			"ShutdownTimeout", // cmd/catalystd (-shutdown-timeout)
			"Telemetry",       // cmd/catalystd
			"SnapshotTo",      // cmd/catalystd
			"Logf",            // cmd/catalystd
			"OnDrain",         // cmd/catalystd
		}},
		{reflect.TypeOf(MetricsOptions{}), []string{
			"Telemetry", // cmd/catalystd (-metrics)
			"PProf",     // cmd/catalystd (-pprof)
			"Config",    // cmd/catalystd
		}},
		{reflect.TypeOf(resilience.HealthOptions{}), []string{
			"Interval",  // catalyst.NewUpstream (a tenant's healthInterval)
			"Telemetry", // catalyst.NewUpstream
			"Name",      // catalyst.NewUpstream
		}},
		{reflect.TypeOf(cachestore.Options[int]{}), []string{
			"Shards",    // internal/httpcache
			"MaxBytes",  // catalyst.Middleware, internal/cluster, internal/cachesim, bench
			"SizeOf",    // catalyst.Middleware, internal/cluster, internal/cachesim, internal/httpcache, internal/sw, bench
			"Telemetry", // catalyst.Middleware, internal/cluster
			"Name",      // catalyst.Middleware, internal/cluster
		}},
	}
	for _, c := range census {
		var got []string
		for i := 0; i < c.typ.NumField(); i++ {
			if f := c.typ.Field(i); f.IsExported() {
				got = append(got, f.Name)
			}
		}
		if !slices.Equal(got, c.fields) {
			t.Errorf("%v has exported fields %q, the census lists %q: name the program that sets a new field, or make it a constant", c.typ, got, c.fields)
		}
	}
}
