package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"time"

	"cachecatalyst/internal/cluster"
)

// workload is one traffic shape against one serving mode.
type workload struct {
	name string
	why  string
	// warmupPerConn is the fixed number of warm-up requests each
	// connection sends before measurement; it is part of set-up.
	warmupPerConn int
	// openRate is the open-loop rate of the traced run's latency probe, in
	// requests per second: about half the closed-loop median measured at
	// the commit that defined the benchmark, frozen so that later commits
	// are probed at the same offered load.
	openRate float64
	// webgenSites is how many sites of the fixed corpus the workload serves.
	webgenSites int
	// content generates what is served and what is asked from the seed.
	content func(seed int64, in inputs) content
	// start launches the program under test over that content. Together
	// with content and the warm-up it is what setup_s times.
	start func(c content, tmp string) (*env, error)
	// run, when set, replaces the socket-driven measurement (plt_sweep).
	run func(w *workload, seed int64, seconds float64, trace bool) (*result, error)
}

// connections is the number of keep-alive connections, one per CPU of the
// box the benchmark was sized on.
const connections = 2

// setupRepeats is how many times a run sets the workload up; setup_s is
// the median, the last one is measured.
const setupRepeats = 3

var workloads = []*workload{
	{
		name:          "static_revalidate",
		why:           "Conventional clients revalidating subresources (90% 304, 10% 200) on catalystd -dir: the round trips the paper deletes; the 0-alloc fast lane and per-request tax, no HTML code runs.",
		warmupPerConn: 1500,
		openRate:      4500,
		webgenSites:   1,
		content:       dirContent(staticTraffic),
		start:         startDir,
	},
	{
		name:          "page_warm",
		why:           "Catalyst clients navigating two unchanged pages (50% conditional) on catalystd -dir: the server decoration pipeline on its warm path, everything fits the render cache.",
		warmupPerConn: 500,
		openRate:      2500,
		webgenSites:   1,
		content:       dirContent(pageTraffic),
		start:         startDir,
	},
	{
		name:          "page_churn",
		why:           "Zipf navigations over 1200 mutating pages through catalystd -origin: the middleware's cold path (parse, extract, probe fan-out) and cache Put+evict on a working set 3x the caches.",
		warmupPerConn: 300,
		openRate:      180,
		content:       churnContent,
		start:         startProxy,
	},
	{
		name:          "edge_tenants",
		why:           "Four Host-routed tenants (8:4:2:1) on two clustered catalystd -config instances, 10% sent to the non-owner: middleware warm path plus tenant resolve, namespaces, probe-TTL re-probes, hot-map gossip.",
		warmupPerConn: 300,
		openRate:      2000,
		webgenSites:   len(tenantNames),
		content:       edgeContent,
		start:         startEdge,
	},
	{
		name: "plt_sweep",
		why:  "pltbench headline sweep plus the six-scheme matrix as child processes: the paper's result and the client half (webgen, browser, netsim, sw, httpcache, delta); daemon-only changes predict no change.",
		run:  runPLTSweep,
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// inputs are what a workload's content is generated from beside the seed.
// Choosing them is the benchmark's work, not the program's, so it is not
// part of set-up. Tests shrink them.
type inputs struct {
	siteIdx               []int // indices into the fixed webgen corpus
	churnPages, churnSubs int
}

func (w *workload) inputs() (inputs, error) {
	in := inputs{churnPages: churnPages, churnSubs: churnSubs}
	if w.webgenSites == 0 {
		return in, nil
	}
	var err error
	in.siteIdx, err = pickSites(w.webgenSites)
	return in, err
}

// content is a workload's generated input: the sites served, the request
// sequence, and the origin's timeline (tick, called before every request).
type content struct {
	sites []*site
	tr    traffic
	tick  func()
}

// env is a workload set up and ready to be driven.
type env struct {
	addrs   []string
	daemons []*daemon
	origin  *origin
	gen     *generator
	// cleanup runs in reverse order at teardown, after the daemons stopped.
	cleanup []func()
}

// teardown stops every child, waits for the drain snapshots, then releases
// everything else the set-up created. It always runs to the end; the first
// error is returned.
func (e *env) teardown() ([]snapshot, error) {
	var snaps []snapshot
	var first error
	if e.gen != nil {
		e.gen.close()
	}
	for _, d := range e.daemons {
		s, err := d.stop()
		if err != nil && first == nil {
			first = err
		}
		snaps = append(snaps, s)
	}
	for i := len(e.cleanup) - 1; i >= 0; i-- {
		e.cleanup[i]()
	}
	return snaps, first
}

// --- block traffic ---------------------------------------------------

// slot is one entry of a traffic block.
type slot struct {
	target int
	site   *site
	res    *resource
	cond   bool
}

// blockTraffic cycles through seeded shuffles of a fixed block of slots, so
// every block-length stretch of a connection's sequence has exactly the
// nominal mix; only the order is random. The cursor lives in the connection.
type blockTraffic struct{ slots []slot }

// blockCursor is one connection's place in the current shuffle.
type blockCursor struct {
	order []int
	pos   int
}

func newBlockTraffic(slots []slot) *blockTraffic { return &blockTraffic{slots: slots} }

func (t *blockTraffic) next(c *conn) request {
	cur := c.cursor
	if cur == nil {
		cur = &blockCursor{order: make([]int, len(t.slots))}
		for i := range cur.order {
			cur.order[i] = i
		}
		cur.pos = len(cur.order)
		c.cursor = cur
	}
	if cur.pos == len(cur.order) {
		c.rng.Shuffle(len(cur.order), func(i, j int) { cur.order[i], cur.order[j] = cur.order[j], cur.order[i] })
		cur.pos = 0
	}
	s := t.slots[cur.order[cur.pos]]
	cur.pos++
	rq := request{target: s.target, host: s.site.host, site: s.site, res: s.res}
	if s.cond {
		if s.res.html {
			// The decorated page's validator is the server's own; the
			// client can only echo what it was given.
			rq.inm = c.learned[s.res]
		} else {
			rq.inm = s.res.current().tag
		}
	}
	return rq
}

// staticTraffic: every subresource ten times per block, nine of them with
// the matching If-None-Match.
func staticTraffic(s *site) []slot {
	var slots []slot
	for _, p := range s.subs {
		for k := 0; k < 10; k++ {
			slots = append(slots, slot{site: s, res: s.res[p], cond: k > 0})
		}
	}
	return slots
}

// pageTraffic: the site's pages, half the navigations conditional.
func pageTraffic(s *site) []slot {
	var slots []slot
	for k := 0; k < 8; k++ {
		for _, p := range s.pages {
			slots = append(slots, slot{site: s, res: s.res[p], cond: k%2 == 0})
		}
	}
	return slots
}

// --- catalystd -dir workloads ------------------------------------------

func dirContent(mix func(*site) []slot) func(int64, inputs) content {
	return func(seed int64, in inputs) content {
		s := webgenSite(seed, in.siteIdx[0], "site.bench.example")
		return content{sites: []*site{s}, tr: newBlockTraffic(mix(s))}
	}
}

func startDir(c content, tmp string) (*env, error) {
	dir := filepath.Join(tmp, "site")
	if err := materialize(c.sites[0], dir); err != nil {
		return nil, err
	}
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	d, err := startDaemon(addr, "-dir", dir)
	if err != nil {
		return nil, err
	}
	return &env{addrs: []string{addr}, daemons: []*daemon{d}}, nil
}

// startWith is the tail every daemon set-up shares: wait until each daemon
// listens, then send the workload's fixed warm-up through the connections
// the measurement will reuse. Its first request is the first 200 of setup_s.
func (e *env) startWith(w *workload, seed int64, c content) error {
	for _, d := range e.daemons {
		if err := d.awaitListening(10 * time.Second); err != nil {
			return err
		}
	}
	e.gen = newGenerator(seed, connections, e.addrs, c.tr)
	e.gen.tick = c.tick
	warm := e.gen.warmup(w.warmupPerConn)
	if warm.Failures > 0 {
		return fmt.Errorf("warm-up: %d of %d requests failed, first: %v", warm.Failures, warm.Attempts, warm.FirstErr)
	}
	return nil
}

// --- page_churn -----------------------------------------------------------

// churnTraffic draws pages by Zipf rank through a seeded rank→page
// permutation; 15% of requests revalidate one subresource of the drawn
// page with the tag the origin holds right now.
type churnTraffic struct {
	site *site
	z    *zipf
	perm []int
}

const churnSubPct = 15

func (t *churnTraffic) next(c *conn) request {
	page := t.site.res[t.site.pages[t.perm[t.z.draw(c.rng)]]]
	if c.rng.Intn(100) < churnSubPct {
		sub := t.site.res[page.refs[c.rng.Intn(len(page.refs))]]
		return request{host: t.site.host, site: t.site, res: sub, inm: sub.current().tag, mutable: true}
	}
	return request{host: t.site.host, site: t.site, res: page, mutable: true}
}

func newChurnTraffic(s *site, seed int64) *churnTraffic {
	return &churnTraffic{
		site: s,
		z:    newZipf(len(s.pages), churnZipfS),
		perm: rand.New(rand.NewSource(seed*5_003 + 11)).Perm(len(s.pages)),
	}
}

// churnTick advances the origin's timeline every churnMutateEvery client
// requests.
func churnTick(s *site, seed int64) func() {
	return everyNth(churnMutateEvery, func(k int64) { s.bump(mutationTarget(s, seed, k)) })
}

func churnContent(seed int64, in inputs) content {
	s := churnSite(seed, "churn.bench.example", in.churnPages, in.churnSubs)
	return content{sites: []*site{s}, tr: newChurnTraffic(s, seed), tick: churnTick(s, seed)}
}

// startOrigin serves the content's sites from the bench origin.
func startOrigin(c content) (*env, string, error) {
	o := newOrigin(c.sites...)
	oaddr, stopOrigin, err := o.listen()
	if err != nil {
		return nil, "", err
	}
	return &env{origin: o, cleanup: []func(){stopOrigin}}, "http://" + oaddr, nil
}

func startProxy(c content, _ string) (*env, error) {
	e, upstream, err := startOrigin(c)
	if err != nil {
		return nil, err
	}
	addr, err := freeAddr()
	if err != nil {
		e.teardown()
		return nil, err
	}
	d, err := startDaemon(addr, "-origin", upstream)
	if err != nil {
		e.teardown()
		return nil, err
	}
	e.addrs, e.daemons = []string{addr}, []*daemon{d}
	return e, nil
}

// --- edge_tenants ---------------------------------------------------------

// edgeInstances are the two daemons' ring member names.
var edgeInstances = []string{"a", "b"}

// edgeSlots builds the edge_tenants block: tenants by weight, both pages,
// and for each (tenant, page) nine requests at the ring owner for every one
// at the other instance.
func edgeSlots(sites []*site) []slot {
	ring := cluster.NewRing(edgeInstances...)
	index := map[string]int{}
	for i, id := range edgeInstances {
		index[id] = i
	}
	var slots []slot
	for ti, s := range sites {
		for _, p := range s.pages {
			owner := index[ring.Owner(tenantNames[ti]+p)]
			for w := 0; w < tenantWeights[ti]; w++ {
				for k := 0; k < 100/nonOwnerPct; k++ {
					target := owner
					if k == 0 {
						target = 1 - owner
					}
					slots = append(slots, slot{target: target, site: s, res: s.res[p]})
				}
			}
		}
	}
	return slots
}

// edgeConfig is the catalystd.json of one instance: the four tenants on
// one upstream, told apart by Host, and the other instance as its peer.
func edgeConfig(upstream, instance, peerAddr string) ([]byte, error) {
	type tenantJSON struct {
		Name     string   `json:"name"`
		Upstream string   `json:"upstream"`
		Hosts    []string `json:"hosts"`
	}
	cfg := struct {
		Tenants []tenantJSON `json:"tenants"`
		Cluster struct {
			Instance string   `json:"instance"`
			Peers    []string `json:"peers"`
		} `json:"cluster"`
	}{}
	for _, n := range tenantNames {
		cfg.Tenants = append(cfg.Tenants, tenantJSON{Name: n, Upstream: upstream, Hosts: []string{tenantHost(n)}})
	}
	cfg.Cluster.Instance = instance
	cfg.Cluster.Peers = []string{"http://" + peerAddr}
	return json.MarshalIndent(cfg, "", "  ")
}

func edgeContent(seed int64, in inputs) content {
	var sites []*site
	for i, idx := range in.siteIdx {
		sites = append(sites, webgenSite(seed, idx, tenantHost(tenantNames[i])))
	}
	return content{sites: sites, tr: newBlockTraffic(edgeSlots(sites))}
}

func startEdge(c content, tmp string) (*env, error) {
	e, upstream, err := startOrigin(c)
	if err != nil {
		return nil, err
	}
	fail := func(err error) (*env, error) {
		e.teardown()
		return nil, err
	}
	for range edgeInstances {
		addr, err := freeAddr()
		if err != nil {
			return fail(err)
		}
		e.addrs = append(e.addrs, addr)
	}
	for i, id := range edgeInstances {
		cfg, err := edgeConfig(upstream, id, e.addrs[1-i])
		if err != nil {
			return fail(err)
		}
		path := filepath.Join(tmp, "catalystd-"+id+".json")
		if err := os.WriteFile(path, cfg, 0o644); err != nil {
			return fail(err)
		}
		d, err := startDaemon(e.addrs[i], "-config", path)
		if err != nil {
			return fail(err)
		}
		e.daemons = append(e.daemons, d)
	}
	return e, nil
}

// --- measuring a daemon workload -----------------------------------------

// result is one workload's outcome.
type result struct {
	Workload  string   `json:"workload"`
	Trace     bool     `json:"trace"`
	Correct   bool     `json:"correct"`
	Attempted int64    `json:"attempted"`
	Failed    int64    `json:"failed"`
	Problems  []string `json:"problems,omitempty"`
	// Notes say whether the daemon's own counters show the workload
	// stressing what it claims to; they inform, they do not fail a run.
	Notes   []string           `json:"notes,omitempty"`
	Metrics map[string]float64 `json:"metrics"`
	// Samples is how many operations each timing rests on.
	Samples int64 `json:"samples"`
	Windows int   `json:"windows"`
	// WindowOps is the operations completed in each window, in order: a
	// run that changed speed halfway shows here.
	WindowOps []float64 `json:"window_ops,omitempty"`
	// WindowCPU is the children's CPU per operation, window by window.
	WindowCPU []float64 `json:"window_cpu_us,omitempty"`
	LoadStart float64   `json:"load1_start"`
	LoadEnd   float64   `json:"load1_end"`
	// BusyStart is the share of the box's CPUs in use just before the
	// workload started; Noisy marks a run that began with more than a
	// quarter of them taken. Identify such a run, do not re-baseline on it.
	BusyStart float64 `json:"busy_start"`
	Noisy     bool    `json:"noisy"`
}

func (r *result) problem(format string, args ...any) {
	r.Correct = false
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// noisyBusyShare is the CPU share already in use at a workload's start
// above which its result is flagged: half a core of the two-core box.
const noisyBusyShare = 0.25

func newResult(w *workload, trace bool) *result {
	busy := boxBusy()
	return &result{
		Workload: w.name, Trace: trace, Correct: true, Metrics: map[string]float64{},
		LoadStart: loadAverage1(), BusyStart: busy, Noisy: busy > noisyBusyShare,
	}
}

// measured is what driving a set-up workload for a phase yields, before it
// is turned into metrics.
type measured struct {
	phase phaseResult
	// cpuUSPerOp is the children's CPU per completed operation: the median
	// over the phase's 1-second windows, so that a burst of interference
	// moves one window and not the result.
	cpuUSPerOp float64
	// windowCPU is the per-window series cpuUSPerOp is the median of.
	windowCPU  []float64
	originReqs int64
}

// cpuSample is the children's cumulative CPU at an instant.
type cpuSample struct {
	at  time.Time
	cpu time.Duration
}

// drive runs one generator phase and attributes child CPU and origin
// requests to it. A sampler reads the children's CPU from /proc once a
// second while the phase runs.
func (e *env) drive(phase func() phaseResult) (measured, error) {
	var o0 int64
	if e.origin != nil {
		o0 = e.origin.requests.Load()
	}
	var samples []cpuSample
	var sampleErr error
	take := func() {
		cpu, err := e.childCPU()
		if err != nil && sampleErr == nil {
			sampleErr = err
		}
		samples = append(samples, cpuSample{time.Now(), cpu})
	}
	stop, done := make(chan struct{}), make(chan struct{})
	take()
	go func() {
		defer close(done)
		tick := time.NewTicker(time.Second)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				take()
			case <-stop:
				return
			}
		}
	}()
	p := phase()
	close(stop)
	<-done
	take()
	if sampleErr != nil {
		return measured{}, sampleErr
	}
	perOp := cpuPerOp(samples, p)
	m := measured{phase: p, cpuUSPerOp: median(perOp), windowCPU: perOp}
	if e.origin != nil {
		m.originReqs = e.origin.requests.Load() - o0
	}
	return m, nil
}

// cpuPerOp divides, window by window, the CPU the children used between
// two samples by the operations completed between them, in microseconds. A trailing window shorter than half a second and
// windows without operations are left out.
func cpuPerOp(samples []cpuSample, p phaseResult) []float64 {
	done := make([]time.Time, len(p.Samples))
	for i, s := range p.Samples {
		done[i] = p.Start.Add(s.at)
	}
	sort.Slice(done, func(i, j int) bool { return done[i].Before(done[j]) })
	var perOp []float64
	k := 0
	for i := 1; i < len(samples); i++ {
		lo, hi := samples[i-1], samples[i]
		for k < len(done) && done[k].Before(lo.at) {
			k++
		}
		ops := 0
		for k < len(done) && done[k].Before(hi.at) {
			k++
			ops++
		}
		if ops == 0 || (i == len(samples)-1 && hi.at.Sub(lo.at) < 500*time.Millisecond) {
			continue
		}
		perOp = append(perOp, float64((hi.cpu-lo.cpu).Microseconds())/float64(ops))
	}
	return perOp
}

func (e *env) childCPU() (time.Duration, error) {
	var total time.Duration
	for _, d := range e.daemons {
		c, err := procCPU(d.pid())
		if err != nil {
			return 0, fmt.Errorf("catalystd (pid %d) CPU: %w", d.pid(), err)
		}
		total += c
	}
	return total, nil
}

func (e *env) peakRSSMiB() (float64, error) {
	var total int64
	for _, d := range e.daemons {
		k, err := procPeakRSSKiB(d.pid())
		if err != nil {
			return 0, fmt.Errorf("catalystd (pid %d) peak RSS: %w", d.pid(), err)
		}
		total += k
	}
	return float64(total) / 1024, nil
}

// tmpDir returns a fresh scratch directory under outDir and the function
// that removes it.
func tmpDir() (string, func(), error) {
	if err := os.MkdirAll(filepath.Join(outDir, "tmp"), 0o755); err != nil {
		return "", nil, err
	}
	dir, err := os.MkdirTemp(filepath.Join(outDir, "tmp"), "run-")
	if err != nil {
		return "", nil, err
	}
	return dir, func() { os.RemoveAll(dir) }, nil
}

// setUp performs the workload's set-up repeats times — generate content,
// start the program, warm it up — tearing down all but the last, and returns
// the last with the median set-up time.
func setUp(w *workload, seed int64, in inputs, repeats int) (*env, float64, error) {
	var times []float64
	for i := 0; ; i++ {
		tmp, rmTmp, err := tmpDir()
		if err != nil {
			return nil, 0, err
		}
		start := time.Now()
		c := w.content(seed, in)
		e, err := w.start(c, tmp)
		if err != nil {
			rmTmp()
			return nil, 0, fmt.Errorf("set-up %d: %w", i+1, err)
		}
		e.cleanup = append([]func(){rmTmp}, e.cleanup...)
		if err := e.startWith(w, seed, c); err != nil {
			e.teardown()
			return nil, 0, fmt.Errorf("set-up %d: %w", i+1, err)
		}
		times = append(times, time.Since(start).Seconds())
		if i == repeats-1 {
			return e, median(times), nil
		}
		if _, err := e.teardown(); err != nil {
			return nil, 0, fmt.Errorf("teardown after set-up %d: %w", i+1, err)
		}
	}
}

// runDaemonWorkload is the untraced, measured run: end-to-end metrics only.
func runDaemonWorkload(w *workload, seed int64, seconds float64) (*result, error) {
	res := newResult(w, false)
	in, err := w.inputs()
	if err != nil {
		return nil, err
	}
	e, setupS, err := setUp(w, seed, in, setupRepeats)
	if err != nil {
		return nil, err
	}
	length := time.Duration(seconds * float64(time.Second))
	m, err := e.drive(func() phaseResult { return e.gen.closed(length) })
	if err != nil {
		e.teardown()
		return nil, err
	}
	rss, err := e.peakRSSMiB()
	if err != nil {
		e.teardown()
		return nil, err
	}
	snaps, err := e.teardown()
	if err != nil {
		return nil, err
	}
	res.LoadEnd = loadAverage1()

	win := windowize(m.phase.Samples, length, time.Second)
	res.Attempted, res.Failed = m.phase.Attempts, m.phase.Failures
	res.Samples, res.Windows, res.WindowOps, res.WindowCPU = int64(win.Samples), win.Windows, win.Ops, m.windowCPU
	if m.phase.Failures > 0 {
		res.problem("%d of %d operations failed, first: %v", m.phase.Failures, m.phase.Attempts, m.phase.FirstErr)
	}
	if m.phase.ok() == 0 {
		res.problem("no operation completed")
		return res, nil
	}
	res.Metrics["setup_s"] = setupS
	res.Metrics["throughput_rps"] = win.OpsMedian
	res.Metrics["cpu_us_per_op"] = m.cpuUSPerOp
	res.Metrics["latency_p50_ms"] = win.LatP50MsMd
	res.Metrics["rss_mib"] = rss
	raw := foldCounters(snaps)
	res.Notes = stressNotes(w.name, raw, counterMetrics(raw, m, e.gen.lifetime), pct(float64(m.phase.Statuses[304]), float64(m.phase.ok())))
	return res, nil
}
