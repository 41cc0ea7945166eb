package catalyst

import (
	"reflect"
	"slices"
	"testing"

	"cachecatalyst/internal/core"
	"cachecatalyst/internal/resilience"
	"cachecatalyst/internal/server"
)

// TestOptionCensus pins the exported fields of every options struct on the
// serving path, each beside the non-test program that sets it. A value no
// program sets is a constant instead (DESIGN.md, "Frozen values"), so a new
// field fails here until it is listed with its setter.
func TestOptionCensus(t *testing.T) {
	census := []struct {
		typ    reflect.Type
		fields []string
	}{
		{reflect.TypeOf(MiddlewareOptions{}), []string{
			"MaxRenderBytes", // cmd/catalystd (-cache-budget)
			"Telemetry",      // cmd/catalystd, bench
			"MaxInflight",    // cmd/catalystd (-max-inflight), bench
			"RequestBudget",  // cmd/catalystd (-request-budget)
			"OriginBreaker",  // cmd/catalystd (proxy mode's health-checked breaker)
			"ServerTiming",   // cmd/catalystd (-server-timing)
			"EarlyHints",     // none yet: waits for ROADMAP item 10's stage 2
			"Exchange",       // internal/harness (cluster), bench
			"Delta",          // none yet: waits for ROADMAP item 10's stage 2
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
			"Catalyst",        // catalyst.NewServer, internal/harness
			"Record",          // catalyst.NewServer, internal/harness
			"CrossOriginETag", // internal/harness (catalyst-full)
			"Clock",           // internal/harness (virtual clock)
			"AccessLogSize",   // catalyst.NewServer
			"MaxRenderBytes",  // catalyst.NewServer
			"Telemetry",       // catalyst.NewServer
			"ServerTiming",    // catalyst.NewServer
			"MaxInflight",     // catalyst.NewServer
			"RequestBudget",   // catalyst.NewServer
			"EarlyHints",      // internal/harness (early-hints scheme)
			"Delta",           // internal/harness (catalyst-delta scheme)
		}},
		{reflect.TypeOf(core.BuildOptions{}), []string{
			"CrossOriginETag", // internal/server
			"Concurrency",     // catalyst.Middleware (the probe fan-out), internal/server
		}},
		{reflect.TypeOf(resilience.GateOptions{}), []string{
			"MaxInflight", // catalyst.Middleware, internal/server, bench
			"Telemetry",   // catalyst.Middleware, internal/server
			"Name",        // catalyst.Middleware, internal/server
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
