package catalyst

import (
	"fmt"
	"net/http"
	"reflect"
	"sync"

	"cachecatalyst/internal/core"
	"cachecatalyst/internal/server"
	"cachecatalyst/internal/vclock"
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

// The edits tuned applies. withClock makes every age the middleware reads
// one of clock's: a test moves past a bound with Advance, never a sleep.
func withClock(clock *vclock.Virtual) func(*tuning) { return func(t *tuning) { t.clock = clock } }

// withStoppedClock is withClock on a clock no one advances: nothing the
// middleware holds expires.
func withStoppedClock() func(*tuning) { return withClock(vclock.NewVirtual(vclock.Epoch)) }

func withMaxProbeEntries(n int) func(*tuning) { return func(t *tuning) { t.maxProbeEntries = n } }

func withProbeConcurrency(n int) func(*tuning) { return func(t *tuning) { t.probeConcurrency = n } }

func withMaxMapBytes(n int) func(*tuning) { return func(t *tuning) { t.maxMapBytes = n } }

func withContentConcurrency(n int) func(*tuning) { return func(t *tuning) { t.contentConcurrency = n } }

// serverOf returns the server h, a Middleware in front of one, serves.
func serverOf(h http.Handler) *server.Server { return h.(*middleware).content.srv }

// metricsOf returns the counters of h, a Middleware.
func metricsOf(h http.Handler) *middlewareMetrics { return h.(*middleware).metrics }

// TimelineStep is how far the timeline tests advance the clock between
// steps: past every probe's trust and every path's open breaker, so each
// step re-probes the whole site, as a fresh crawl does.
const TimelineStep = max(probeTTL, breakerCooldown) * 3 / 2

// TimelineMiddleware is Middleware as the timeline tests run it, with its
// counters: every age is read off clock, and maxProbeEntries, when positive,
// shrinks the probe cache.
func TimelineMiddleware(next http.Handler, clock *vclock.Virtual, maxProbeEntries int) (http.Handler, *middlewareMetrics) {
	edits := []func(*tuning){withClock(clock)}
	if maxProbeEntries > 0 {
		edits = append(edits, withMaxProbeEntries(maxProbeEntries))
	}
	h := tuned(next, MiddlewareOptions{}, edits...)
	return h, metricsOf(h)
}

// renderMemoLog collects the memos NewRenderMemo makes, and counts the
// stylesheet extractions extractCSSRefs makes, while it is on.
var renderMemoLog struct {
	sync.Mutex
	on          bool
	memos       []*RenderMemo
	extractions int
}

func init() {
	testHookNewRenderMemo = func(m *RenderMemo) {
		renderMemoLog.Lock()
		if renderMemoLog.on {
			renderMemoLog.memos = append(renderMemoLog.memos, m)
		}
		renderMemoLog.Unlock()
	}
	extract := extractCSSRefs
	extractCSSRefs = func(path, text string) []core.Ref {
		renderMemoLog.Lock()
		if renderMemoLog.on {
			renderMemoLog.extractions++
		}
		renderMemoLog.Unlock()
		return extract(path, text)
	}
}

// CollectRenderMemos runs f and returns every render memo made while it ran
// and how many stylesheets the middleware extracted meanwhile.
func CollectRenderMemos(f func()) ([]*RenderMemo, int) {
	renderMemoLog.Lock()
	renderMemoLog.on, renderMemoLog.memos, renderMemoLog.extractions = true, nil, 0
	renderMemoLog.Unlock()
	f()
	renderMemoLog.Lock()
	defer renderMemoLog.Unlock()
	memos, n := renderMemoLog.memos, renderMemoLog.extractions
	renderMemoLog.on, renderMemoLog.memos = false, nil
	return memos, n
}

// Recheck renders every render entry's page afresh from its Resource and
// URL, and extracts every stylesheet entry's references afresh, and returns
// how many renders and stylesheet versions the memo holds and an error
// naming the entries that differ.
func (m *RenderMemo) Recheck() (renders, sheets int, err error) {
	var bad []string
	for key, got := range m.renders {
		if want := newRender(key.page, string(key.res.Body)); !reflect.DeepEqual(got, want) {
			bad = append(bad, fmt.Sprintf("%s, version %s: the stored render differs from a fresh one", key.page, key.res.ETag))
		}
	}
	for key, got := range m.sheets {
		if want := core.ExtractCSSRefs(key.page, string(key.res.Body)); !reflect.DeepEqual(got, want) {
			bad = append(bad, fmt.Sprintf("%s, version %s: the stored references differ from a fresh extraction", key.page, key.res.ETag))
		}
	}
	renders, sheets = len(m.renders), len(m.sheets)
	if len(bad) > 0 {
		err = fmt.Errorf("%d of %d entries differ from a fresh render or extraction: %q", len(bad), renders+sheets, bad)
	}
	return renders, sheets, err
}
