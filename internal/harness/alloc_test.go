package harness

import (
	"net/textproto"
	"testing"
	"time"

	"cachecatalyst/internal/core"
	"cachecatalyst/internal/netsim"
	"cachecatalyst/internal/telemetry"
	"cachecatalyst/internal/webgen"
)

// TestSimulatedLoadAllocations is a ceiling on what simulating a load
// allocates: a fresh world of one fixed site (39 resources) makes a cold
// visit and revisits at 1 h and 1 d, under conventional caching and under
// catalyst. The ceilings are the measured counts plus 2 %; the counts
// repeat to within one allocation, with or without -race. A change that
// allocates per event, per exchange or per resource again fails here
// before it shows in plt_sweep's CPU. BenchmarkPLTSweep is the whole-sweep
// view of the same costs.
func TestSimulatedLoadAllocations(t *testing.T) {
	site := generate(webgen.Params{Sites: 1, Seed: 7}, 0)
	cond := netsim.Conditions{RTT: 40 * time.Millisecond, DownlinkBps: 60e6}
	for _, tc := range []struct {
		scheme Scheme
		max    float64
	}{
		{SchemeConventional, 2257}, // measured 2212
		{SchemeCatalyst, 2012},     // measured 1972
	} {
		t.Run(tc.scheme.String(), func(t *testing.T) {
			var resources int
			visits := func() {
				w := newWorld(site, newSiteMemos(), tc.scheme, netsim.TransportOptions{})
				loads, err := w.revisit(cond, []time.Duration{time.Hour, 24 * time.Hour}, webgen.PagePath)
				if err != nil {
					t.Fatal(err)
				}
				resources = loads[0].Resources
			}
			got := testing.AllocsPerRun(10, visits)
			t.Logf("cold visit and two revisits of %d resources: %.0f allocations", resources, got)
			if got > tc.max {
				t.Errorf("a cold visit and two revisits allocate %.0f times, want ≤ %.0f", got, tc.max)
			}
		})
	}
}

// TestClientHeaderKeysAreCanonical: the client reads and writes these
// header fields by indexing the map directly (headers.Value, hdr[key] =),
// which finds a field only under its canonical key, the key net/http and
// the simulated origin store it under.
func TestClientHeaderKeysAreCanonical(t *testing.T) {
	for _, key := range []string{
		// httpcache: freshness, age, validators, storability, Vary.
		"Cache-Control", "Expires", "Last-Modified", "Age", "Date", "Etag", "Vary",
		// browser: conditional requests, the request builders, content
		// type and decisions.
		"If-None-Match", "If-Modified-Since", "Referer", "Cookie", "Content-Type",
		telemetry.RequestIDHeader, telemetry.ServerTimingHeader,
		// sw: the map a navigation delivers.
		core.HeaderName,
	} {
		if c := textproto.CanonicalMIMEHeaderKey(key); c != key {
			t.Errorf("header key %q is indexed directly but is not canonical (%q)", key, c)
		}
	}
}
