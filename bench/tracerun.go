package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"time"

	"cachecatalyst/catalyst"
)

// runTraced is the separate traced run of a daemon workload. It prints the
// per-layer ledger and nothing else: end-to-end numbers always come from
// the untraced run. Three parts:
//
//	C+G  the real daemons driven closed-loop for half the phase length,
//	     then open-loop for a quarter of it: drain-snapshot counters,
//	     generator cost, bytes on the wire, open-loop latency;
//	R    the in-process replay of the same seeded inputs through the
//	     handler stack, untraced and traced;
//	R    the leaf layers on the workload's pages.
func runTraced(w *workload, seed int64, seconds float64) (*result, error) {
	res := newResult(w, true)
	led := &ledger{tr: newTracer(), m: res.Metrics}

	in, err := w.inputs()
	if err != nil {
		return nil, err
	}
	e, _, err := setUp(w, seed, in, 1)
	if err != nil {
		return nil, err
	}
	closedLen := time.Duration(seconds / 2 * float64(time.Second))
	openLen := time.Duration(seconds / 4 * float64(time.Second))
	m, err := e.drive(func() phaseResult { return e.gen.closed(closedLen) })
	if err != nil {
		e.teardown()
		return nil, err
	}
	open := e.gen.open(openLen, w.openRate)
	lifetime := e.gen.lifetime
	snaps, err := e.teardown()
	if err != nil {
		return nil, err
	}
	res.Attempted = m.phase.Attempts + open.Attempts
	res.Failed = m.phase.Failures + open.Failures
	for _, p := range []phaseResult{m.phase, open} {
		if p.Failures > 0 {
			res.problem("%d of %d operations failed, first: %v", p.Failures, p.Attempts, p.FirstErr)
		}
	}
	if m.phase.ok() == 0 || open.ok() == 0 {
		res.problem("a phase completed no operation")
		fillMissing(res)
		return res, nil
	}
	win := windowize(m.phase.Samples, closedLen, time.Second)
	res.Samples, res.Windows = int64(win.Samples), win.Windows

	raw := foldCounters(snaps)
	cm := counterMetrics(raw, m, lifetime)
	notModified := pct(float64(m.phase.Statuses[http.StatusNotModified]), float64(m.phase.ok()))
	res.Notes = stressNotes(w.name, raw, cm, notModified)
	for name, v := range cm {
		led.m[name] = v
	}
	led.m["gen.cpu_us_per_op"] = float64(m.phase.GenCPU.Microseconds()) / float64(m.phase.ok())
	led.m["gen.resp_bytes_per_op"] = float64(m.phase.RespB) / float64(m.phase.ok())
	led.m["gen.not_modified_pct"] = notModified
	openLatency(led.m, open)

	tmp, rmTmp, err := tmpDir()
	if err != nil {
		return nil, err
	}
	defer rmTmp()
	st, err := buildStack(w, w.content(seed, in), tmp)
	if err != nil {
		return nil, err
	}
	defer st.close()
	stats, err := replay(st, seed, led.tr, replayRequests)
	if err != nil {
		res.problem("%v", err)
	} else {
		stackMetrics(led, st, stats)
	}
	led.clientGet(st)
	led.leafLayers(st.sites[0], keyTrace(st, seed))

	if path, err := led.tr.write(w.name); err != nil {
		res.problem("writing the trace: %v", err)
	} else {
		res.Notes = append(res.Notes, fmt.Sprintf("%d spans written to %s", len(led.tr.spans), path))
	}
	res.LoadEnd = loadAverage1()
	fillMissing(res)
	return res, nil
}

// openLatency reports the open-loop phase: latency from the scheduled send
// time, at the median and at the highest percentile the sample supports,
// and how late the generator itself ran.
func openLatency(m map[string]float64, open phaseResult) {
	lat := make([]float64, len(open.Samples))
	for i, s := range open.Samples {
		lat[i] = float64(s.lat) / float64(time.Millisecond)
	}
	sort.Float64s(lat)
	late := make([]float64, len(open.Lateness))
	for i, d := range open.Lateness {
		late[i] = float64(d) / float64(time.Millisecond)
	}
	sort.Float64s(late)
	tail := highestSupportedPercentile(len(lat))
	m["gen.open_p50_ms"] = quantile(lat, 0.50)
	m["gen.open_tail_pct"] = tail
	m["gen.open_tail_ms"] = quantile(lat, tail/100)
	if tail >= 99 {
		// Reported only when the sample supports it; otherwise left 0.
		m["gen.open_p99_ms"] = quantile(lat, 0.99)
		m["gen.late_p99_ms"] = quantile(late, 0.99)
	}
}

// stackMetrics turns the replay's spans into the handler-stack metrics.
func stackMetrics(led *ledger, st *stack, stats replayStats) {
	self := selfTimes(led.tr.spans)
	var html, s200, s304, warm, cold []int64
	var probeCalls, htmlReqs float64
	for i, sp := range stats.reqSpans {
		switch {
		case st.origin == nil && stats.html[i]:
			html = append(html, self[sp])
		case st.origin == nil && stats.status[i] == http.StatusNotModified:
			s304 = append(s304, self[sp])
		case st.origin == nil:
			s200 = append(s200, self[sp])
		case !stats.html[i]:
			// Subresource passthrough is not a decoration path.
		case stats.children[i] <= 1:
			warm = append(warm, self[sp])
		default:
			cold = append(cold, self[sp])
		}
		if st.origin != nil && stats.html[i] {
			htmlReqs++
			probeCalls += float64(stats.children[i] - 1)
		}
	}
	set := func(name string, v []int64) {
		if len(v) > 0 {
			led.m[name] = medianInt64(v)
		}
	}
	set("server.html_ns", html)
	set("server.static200_ns", s200)
	set("server.static304_ns", s304)
	set("catalyst.mw_warm_ns", warm)
	set("catalyst.mw_cold_ns", cold)
	if st.origin == nil {
		if len(html) > 0 {
			led.m["server.html_allocs_per_op"] = stats.allocsPerOp
		}
	} else {
		led.m["catalyst.mw_allocs_per_op"] = stats.allocsPerOp
		led.m["catalyst.probe_calls_per_page"] = per(probeCalls, htmlReqs)
	}
	led.m["trace.overhead_pct"] = pct(float64(stats.tracedPerOp-stats.untracedPerOp), float64(stats.untracedPerOp))
}

// transportFunc adapts a function to http.RoundTripper.
type transportFunc func(*http.Request) (*http.Response, error)

func (f transportFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// clientGet times the public client's zero-round-trip path: a navigation
// delivers the map, a first Get fills the cache, and every later Get of the
// same subresource is answered locally.
func (l *ledger) clientGet(st *stack) {
	s := st.sites[0]
	page := s.res[s.pages[0]]
	if len(page.refs) == 0 {
		return
	}
	hc := &http.Client{Transport: transportFunc(func(r *http.Request) (*http.Response, error) {
		rec := httptest.NewRecorder()
		st.handler.ServeHTTP(rec, r)
		return rec.Result(), nil
	})}
	client := catalyst.NewClient(hc)
	base := "http://" + s.host
	sub := base + page.refs[0]
	if _, err := client.Get(base + page.path); err != nil {
		return
	}
	if _, err := client.Get(sub); err != nil {
		return
	}
	if resp, err := client.Get(sub); err != nil || resp.Source != "cache" {
		return // the map does not cover it: no zero-round-trip path to time
	}
	l.m["catalyst.client_get_ns"] = l.each("catalyst.Client.Get", 200, func(int) { sink, _ = client.Get(sub) })
}

// keyTrace is the page navigations of the workload's sequence, the input of
// cachestore.replay_hit_pct.
func keyTrace(st *stack, seed int64) []pageKey {
	c := newConn(0, seed, nil)
	var trace []pageKey
	for i := 0; i < 20000; i++ {
		rq := st.tr.next(c)
		if rq.res.html {
			trace = append(trace, pageKey{key: rq.host + rq.res.path, body: rq.res.current().body})
		}
	}
	return trace
}

// fillMissing gives every ledger metric the run did not produce the value
// 0, so that every traced run prints every per-layer metric by name: a
// layer a workload does not touch reads 0 there.
func fillMissing(res *result) {
	for _, d := range perLayer {
		if _, ok := res.Metrics[d.Name]; !ok {
			res.Metrics[d.Name] = 0
		}
	}
}

// traceClientHalf is plt_sweep's traced run: the simulator's layers in
// process, and the leaf layers on a page of the seed's corpus.
func traceClientHalf(res *result, seed int64) {
	led := &ledger{tr: newTracer(), m: res.Metrics}
	if err := led.clientHalf(seed); err != nil {
		res.problem("client half: %v", err)
	}
	s := webgenSite(seed, 0, "site000.example")
	var trace []pageKey
	for i := 0; i < 2000; i++ {
		p := s.res[s.pages[i%len(s.pages)]]
		trace = append(trace, pageKey{key: p.path, body: p.current().body})
	}
	led.leafLayers(s, trace)
	if path, err := led.tr.write(res.Workload); err != nil {
		res.problem("writing the trace: %v", err)
	} else {
		res.Notes = append(res.Notes, fmt.Sprintf("%d spans written to %s", len(led.tr.spans), path))
	}
}
