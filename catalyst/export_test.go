package catalyst

import (
	"fmt"
	"net/http"
	"reflect"
	"sync"
	"time"

	"cachecatalyst/internal/server"
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

func withContentConcurrency(n int) func(*tuning) { return func(t *tuning) { t.contentConcurrency = n } }

// serverOf returns the server h, a Middleware in front of one, serves.
func serverOf(h http.Handler) *server.Server { return h.(*middleware).content.srv }

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

// renderMemoLog collects the memos NewRenderMemo makes while it is on.
var renderMemoLog struct {
	sync.Mutex
	on    bool
	memos []*RenderMemo
}

func init() {
	testHookNewRenderMemo = func(m *RenderMemo) {
		renderMemoLog.Lock()
		if renderMemoLog.on {
			renderMemoLog.memos = append(renderMemoLog.memos, m)
		}
		renderMemoLog.Unlock()
	}
}

// CollectRenderMemos runs f and returns every render memo made while it ran.
func CollectRenderMemos(f func()) []*RenderMemo {
	renderMemoLog.Lock()
	renderMemoLog.on, renderMemoLog.memos = true, nil
	renderMemoLog.Unlock()
	f()
	renderMemoLog.Lock()
	defer renderMemoLog.Unlock()
	memos := renderMemoLog.memos
	renderMemoLog.on, renderMemoLog.memos = false, nil
	return memos
}

// Recheck renders every entry's page afresh from its Resource and URL and
// returns how many entries the memo holds and an error naming those whose
// stored render differs.
func (m *RenderMemo) Recheck() (int, error) {
	var bad []string
	for key, got := range m.renders {
		if want := newRender(key.page, string(key.res.Body)); !reflect.DeepEqual(got, want) {
			bad = append(bad, fmt.Sprintf("%s, version %s: the stored render differs from a fresh one", key.page, key.res.ETag))
		}
	}
	if len(bad) > 0 {
		return len(m.renders), fmt.Errorf("%d of %d renders differ from a fresh render: %q", len(bad), len(m.renders), bad)
	}
	return len(m.renders), nil
}
