package catalyst

import (
	"net/http"
	"time"
)

// ProbeEvictions reports how many entries h, a Middleware, has evicted from
// its probe cache.
func ProbeEvictions(h http.Handler) int64 {
	return h.(*middleware).def.probes.Counters().Evictions
}

// tuned is Middleware with some frozen values edited: the one way a test
// reaches a value other than the constants.
func tuned(next http.Handler, opts MiddlewareOptions, edits ...func(*tuning)) http.Handler {
	t := frozen()
	for _, edit := range edits {
		edit(&t)
	}
	return newMiddleware(next, opts, t)
}

// The edits tuned applies.
func withProbeTTL(d time.Duration) func(*tuning) { return func(t *tuning) { t.probeTTL = d } }

func withBreaker(threshold int, cooldown time.Duration) func(*tuning) {
	return func(t *tuning) { t.breakerThreshold, t.breakerCooldown = threshold, cooldown }
}

func withMaxProbeEntries(n int) func(*tuning) { return func(t *tuning) { t.maxProbeEntries = n } }

func withProbeConcurrency(n int) func(*tuning) { return func(t *tuning) { t.probeConcurrency = n } }

func withMaxMapBytes(n int) func(*tuning) { return func(t *tuning) { t.maxMapBytes = n } }

// metricsOf returns the counters of h, a Middleware.
func metricsOf(h http.Handler) *middlewareMetrics { return h.(*middleware).metrics }

// TimelineMiddleware is Middleware as the timeline tests run it, with its
// counters: a probe is trusted for ttl, a path's open breaker holds it out of
// the map no longer than that, and maxProbeEntries, when positive, shrinks
// the probe cache.
func TimelineMiddleware(next http.Handler, ttl time.Duration, maxProbeEntries int) (http.Handler, *middlewareMetrics) {
	edits := []func(*tuning){withProbeTTL(ttl), withBreaker(breakerThreshold, ttl)}
	if maxProbeEntries > 0 {
		edits = append(edits, withMaxProbeEntries(maxProbeEntries))
	}
	h := tuned(next, MiddlewareOptions{}, edits...)
	return h, metricsOf(h)
}
