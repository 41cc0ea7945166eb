//go:build !race

// The warm-revisit allocation caps live behind !race: the race detector's
// instrumentation allocates on its own.

package harness

import (
	"testing"
	"time"

	"cachecatalyst/internal/browser"
	"cachecatalyst/internal/netsim"
	"cachecatalyst/internal/webgen"
)

// TestWarmRevisitAllocations caps what one warm revisit allocates, where the
// client caches do most of their work: a world of one fixed site makes its
// cold visit, and each measured run advances the clock an hour and loads the
// page again, so the HTTP cache serves fresh entries, revalidates stale ones
// and merges their 304s, and under catalyst the worker answers from its
// CacheStorage. The caps are the measured counts plus 2 %. A store that
// clones the header it keeps, a lookup that parses Date, Expires or Age
// again, or a load that builds its per-resource maps afresh fails here.
func TestWarmRevisitAllocations(t *testing.T) {
	cond := netsim.Conditions{RTT: 40 * time.Millisecond, DownlinkBps: 60e6}
	for _, tc := range []struct {
		scheme Scheme
		max    float64
	}{
		{SchemeConventional, 570}, // measured 558
		{SchemeCatalyst, 294},     // measured 288
	} {
		t.Run(tc.scheme.String(), func(t *testing.T) {
			w := NewWorld(webgen.Params{Sites: 1, Seed: 7}, 0, tc.scheme, netsim.TransportOptions{})
			if _, err := w.Load(cond); err != nil {
				t.Fatal(err)
			}
			var last browser.LoadResult
			got := testing.AllocsPerRun(10, func() {
				w.Advance(time.Hour)
				var err error
				if last, err = w.Load(cond); err != nil {
					t.Fatal(err)
				}
			})
			t.Logf("warm revisit of %d resources (%d local, %d revalidated): %.0f allocations", last.Resources, last.LocalHits, last.Validations304, got)
			if got > tc.max {
				t.Errorf("a warm revisit allocates %.0f times, want ≤ %.0f", got, tc.max)
			}
		})
	}
}
