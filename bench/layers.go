package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"time"

	"cachecatalyst/internal/browser"
	"cachecatalyst/internal/cachestore"
	"cachecatalyst/internal/cluster"
	"cachecatalyst/internal/core"
	"cachecatalyst/internal/cssparse"
	"cachecatalyst/internal/delta"
	"cachecatalyst/internal/etag"
	"cachecatalyst/internal/harness"
	"cachecatalyst/internal/htmlparse"
	"cachecatalyst/internal/netsim"
	"cachecatalyst/internal/resilience"
	"cachecatalyst/internal/telemetry"
	"cachecatalyst/internal/tenant"
	"cachecatalyst/internal/vclock"
	"cachecatalyst/internal/webgen"
)

// Leaf layers timed from outside: a span around each call into a layer's
// public functions, on the workload's own pages, maps and key traces. A
// metric is the median self time per call. Calls that take nanoseconds are
// spanned in batches — a span costs two clock reads, more than the call —
// and the batch's time is divided by its size.

// ledger collects the traced run's metrics.
type ledger struct {
	tr *tracer
	m  map[string]float64
}

// each spans every call of fn(i), i < n, and returns the median in ns.
func (l *ledger) each(span string, n int, fn func(i int)) float64 {
	d := make([]int64, n)
	for i := 0; i < n; i++ {
		s := l.tr.timed(span, -1, 0, func() { fn(i) })
		d[i] = l.tr.spans[s].End - l.tr.spans[s].Start
	}
	return medianInt64(d)
}

// batched spans rounds batches of fn calls and returns the median ns per
// call. between, when set, runs outside the spans after each batch.
func (l *ledger) batched(span string, rounds, batch int, fn func(i int), between func()) float64 {
	d := make([]int64, rounds)
	for r := 0; r < rounds; r++ {
		s := l.tr.timed(span, -1, 0, func() {
			for i := 0; i < batch; i++ {
				fn(r*batch + i)
			}
		})
		d[r] = l.tr.spans[s].End - l.tr.spans[s].Start
		if between != nil {
			between()
		}
	}
	return medianInt64(d) / float64(batch)
}

const (
	leafCalls  = 40  // calls per microsecond-scale function
	leafRounds = 30  // batches per nanosecond-scale function
	leafBatch  = 512 // calls per batch
)

// siteResolver answers core.Resolver from the benchmark's site model.
type siteResolver struct{ s *site }

func (r siteResolver) ETagFor(path string) (etag.Tag, bool) {
	res, ok := r.s.res[path]
	if !ok {
		return etag.Tag{}, false
	}
	return etag.Parse(res.current().tag)
}

func (r siteResolver) StylesheetBody(path string) (string, bool) {
	res, ok := r.s.res[path]
	if !ok || !strings.HasSuffix(path, ".css") {
		return "", false
	}
	return string(res.current().body), true
}

// Sinks keep results alive so calls are not optimised away; they are typed
// so that storing a result does not allocate a box for it.
var (
	sink      any
	sinkBytes []byte
	sinkStr   string
)

// leafLayers times the layers below the handler stacks on pages of s.
func (l *ledger) leafLayers(s *site, keyTrace []pageKey) {
	var pages []*resource
	for _, p := range s.pages {
		pages = append(pages, s.res[p])
		if len(pages) == 8 {
			break
		}
	}
	html := func(i int) string { return string(pages[i%len(pages)].current().body) }
	url := func(i int) string { return pages[i%len(pages)].path }
	kb := func(i int) float64 { return float64(len(pages[i%len(pages)].current().body)) / 1024 }
	var meanKB float64
	for i := range pages {
		meanKB += kb(i) / float64(len(pages))
	}
	res := siteResolver{s}

	// core
	l.m["core.extract_ns"] = l.each("core.ExtractPageRefs", leafCalls, func(i int) { sink = core.ExtractPageRefs(url(i), html(i)) })
	refs := make([][]core.Ref, len(pages))
	maps := make([]core.ETagMap, len(pages))
	encs := make([]string, len(pages))
	for i := range pages {
		refs[i] = core.ExtractPageRefs(url(i), html(i))
		maps[i] = core.ResolveRefs(refs[i], res, core.BuildOptions{})
		encs[i] = maps[i].Encode()
	}
	l.m["core.resolve_ns"] = l.each("core.ResolveRefs", leafCalls, func(i int) { sink = core.ResolveRefs(refs[i%len(refs)], res, core.BuildOptions{}) })
	l.m["core.encode_ns"] = l.each("core.ETagMap.Encode", leafCalls, func(i int) { sinkStr = maps[i%len(maps)].Encode() })
	var encBytes []float64
	for _, e := range encs {
		encBytes = append(encBytes, float64(len(e)))
	}
	l.m["core.encode_bytes"] = median(encBytes)
	l.m["core.decode_ns"] = l.each("core.DecodeMap", leafCalls, func(i int) { sink, _ = core.DecodeMap(encs[i%len(encs)]) })
	m0 := maps[0]
	var keys []string
	var tags []etag.Tag
	for k, t := range m0 {
		keys, tags = append(keys, k), append(tags, t)
	}
	if len(keys) > 0 {
		l.m["core.decide_ns"] = l.batched("core.Decide", leafRounds, leafBatch, func(i int) { sink = core.Decide(m0, keys[i%len(keys)], tags[i%len(keys)]) }, nil)
	}
	l.m["core.inject_ns"] = l.each("core.InjectRegistration", leafCalls, func(i int) { sinkStr = core.InjectRegistration(html(i)) })

	// parsers, normalised by input size
	docs := make([]*htmlparse.Node, len(pages))
	for i := range pages {
		docs[i] = htmlparse.Parse(html(i))
	}
	l.m["htmlparse.parse_ns_per_kb"] = l.each("htmlparse.Parse", leafCalls, func(i int) { sink = htmlparse.Parse(html(i)) }) / meanKB
	l.m["htmlparse.extract_ns_per_kb"] = l.each("htmlparse.ExtractResources", leafCalls, func(i int) { sink = htmlparse.ExtractResources(docs[i%len(docs)]) }) / meanKB
	var css []string
	var cssKB float64
	for _, p := range s.subs {
		if strings.HasSuffix(p, ".css") && len(css) < 8 {
			css = append(css, string(s.res[p].current().body))
		}
	}
	for _, c := range css {
		cssKB += float64(len(c)) / 1024 / float64(len(css))
	}
	if len(css) > 0 {
		l.m["cssparse.extract_ns_per_kb"] = l.each("cssparse.ExtractRefs", leafCalls, func(i int) { sink = cssparse.ExtractRefs(css[i%len(css)]) }) / cssKB
	}

	// etag
	cur, _ := etag.Parse(pages[0].current().tag)
	inm := cur.String()
	l.m["etag.nonematch_ns"] = l.batched("etag.NoneMatch", leafRounds, leafBatch, func(int) { sink = etag.NoneMatch(inm, cur) }, nil)
	l.m["etag.forbytes_ns_per_kb"] = l.each("etag.ForBytes", leafCalls, func(i int) { sink = etag.ForBytes(pages[i%len(pages)].current().body) }) / meanKB

	// delta: a revision that rewrites two short stretches of the page
	base := pages[0].current().body
	target := append([]byte(nil), base...)
	for _, at := range []int{len(target) / 3, 2 * len(target) / 3} {
		copy(target[at:], "<!-- a later revision of this page differs right here -->")
	}
	patch := delta.Diff(base, target)
	l.m["delta.diff_ns_per_kb"] = l.each("delta.Diff", leafCalls, func(int) { sinkBytes = delta.Diff(base, target) }) / (float64(len(target)) / 1024)
	l.m["delta.apply_ns_per_kb"] = l.each("delta.Apply", leafCalls, func(int) { sinkBytes, _ = delta.Apply(base, patch) }) / (float64(len(target)) / 1024)
	l.m["delta.patch_ratio_pct"] = pct(float64(len(patch)), float64(len(target)))

	l.cachestoreLayer(s, keyTrace)
	l.edgeLayers(encs[0], pages[0])
}

// pageKey is one navigation of a workload's key trace: which page, and the
// bytes a render cache would hold for it.
type pageKey struct {
	key  string
	body []byte
}

// defaultRenderBudget is the daemons' default rendered-page cache budget.
const defaultRenderBudget = 16 << 20

// cachestoreLayer times the cache core with page-sized values, and replays
// the workload's page key trace through a store at the daemon's default
// budget.
func (l *ledger) cachestoreLayer(s *site, keyTrace []pageKey) {
	size := func(_ string, v []byte) int64 { return int64(len(v)) }
	val := s.res[s.pages[0]].current().body
	keyN := func(i int) string { return fmt.Sprintf("/p/%06d.html", i) }

	roomy := cachestore.New[[]byte](cachestore.Options[[]byte]{MaxBytes: 1 << 40, SizeOf: size})
	const resident = 1024
	hot := make([]string, resident)
	for i := range hot {
		hot[i] = keyN(i)
		roomy.Put(hot[i], val)
	}
	l.m["cachestore.get_hit_ns"] = l.batched("cachestore.Get", leafRounds, leafBatch, func(i int) { sinkBytes, _ = roomy.Get(hot[i%resident]) }, nil)
	l.m["cachestore.put_ns"] = l.batched("cachestore.Put", leafRounds, leafBatch, func(i int) { roomy.Put(hot[i%resident], val) }, nil)

	tight := cachestore.New[[]byte](cachestore.Options[[]byte]{MaxBytes: int64(resident * len(val)), SizeOf: size})
	fresh := make([]string, leafRounds*leafBatch+resident)
	for i := range fresh {
		fresh[i] = keyN(resident + i)
	}
	for i := 0; i < resident; i++ {
		tight.Put(fresh[i], val)
	}
	l.m["cachestore.put_evict_ns"] = l.batched("cachestore.Put+evict", leafRounds, leafBatch, func(i int) { tight.Put(fresh[resident+i], val) }, nil)

	// 90% Get / 10% Put from two goroutines: wall time per operation.
	mixed := make([]int64, leafRounds)
	for r := range mixed {
		sp := l.tr.timed("cachestore.mixed", -1, 0, func() {
			var wg sync.WaitGroup
			for g := 0; g < 2; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < leafBatch; i++ {
						k := hot[(i*7+g*13)%resident]
						if i%10 == 9 {
							roomy.Put(k, val)
						} else {
							sink2[g], _ = roomy.Get(k)
						}
					}
				}(g)
			}
			wg.Wait()
		})
		mixed[r] = l.tr.spans[sp].End - l.tr.spans[sp].Start
	}
	l.m["cachestore.mixed_ns"] = medianInt64(mixed) / (2 * leafBatch)

	// The workload's own page key trace at the default render budget.
	if len(keyTrace) > 0 {
		store := cachestore.New[[]byte](cachestore.Options[[]byte]{MaxBytes: defaultRenderBudget, SizeOf: size})
		hits := 0
		for _, k := range keyTrace {
			if _, ok := store.Get(k.key); ok {
				hits++
				continue
			}
			store.Put(k.key, k.body)
		}
		l.m["cachestore.replay_hit_pct"] = pct(float64(hits), float64(len(keyTrace)))
	}
}

var sink2 [2][]byte // per-goroutine sinks of the mixed cachestore loop

// edgeLayers times the layers the edge tier adds per request: tenant
// resolution, ring lookup, the hot-map exchange, the admission gate and a
// telemetry observation.
func (l *ledger) edgeLayers(enc string, page *resource) {
	// Four Host-routed tenants and four path-prefix ones, asked about an
	// even mix of both kinds.
	var tenants []*tenant.Tenant
	var hosts, paths []string
	for i := 0; i < 4; i++ {
		h := fmt.Sprintf("h%d.bench.example", i)
		tenants = append(tenants, &tenant.Tenant{Name: fmt.Sprintf("host%d", i), Hosts: []string{h}})
		hosts, paths = append(hosts, h+":8080"), append(paths, "/index.html")
		p := fmt.Sprintf("/app%d/", i)
		tenants = append(tenants, &tenant.Tenant{Name: fmt.Sprintf("path%d", i), PathPrefix: p})
		hosts, paths = append(hosts, "shared.bench.example"), append(paths, p+"deep/page.html")
	}
	resolver, err := tenant.NewResolver(tenants)
	if err == nil {
		l.m["tenant.resolve_ns"] = l.batched("tenant.Resolver.Resolve", leafRounds, leafBatch, func(i int) { sink = resolver.Resolve(hosts[i%len(hosts)], paths[i%len(paths)]) }, nil)
		noop := http.HandlerFunc(func(http.ResponseWriter, *http.Request) {})
		h := tenant.Handler(resolver, telemetry.NewRegistry(), noop)
		reqs := make([]*http.Request, len(hosts))
		for i := range reqs {
			reqs[i] = newRequest(request{host: hosts[i], res: &resource{path: paths[i]}})
		}
		l.m["tenant.handler_ns"] = l.batched("tenant.Handler", leafRounds, leafBatch, func(i int) { h.ServeHTTP(nil, reqs[i%len(reqs)]) }, nil)
	}

	ring := cluster.NewRing("a", "b", "c")
	l.m["cluster.ring_owner_ns"] = l.batched("cluster.Ring.Owner", leafRounds, leafBatch, func(i int) { sinkStr = ring.Owner(paths[i%len(paths)]) }, nil)

	// The exchange's peer is a port nothing listens on: Publish only
	// queues, and the sender's refused POSTs happen outside the spans.
	exch := cluster.NewExchange(cluster.ExchangeOptions{Instance: "a", Peers: []string{"http://127.0.0.1:1"}})
	defer exch.Close()
	expires := time.Now().Add(time.Minute).UnixNano()
	l.m["cluster.publish_ns"] = l.batched("cluster.Exchange.Publish", 10, 64, func(int) { exch.Publish("t0", page.path, page.current().tag, enc, expires) },
		func() { time.Sleep(20 * time.Millisecond) })
	msg, _ := json.Marshal(map[string]any{"tenant": "t0", "page": page.path, "tag": page.current().tag, "enc": enc, "expires": expires})
	post, _ := http.NewRequestWithContext(context.Background(), http.MethodPost, cluster.HotMapPath, bytes.NewReader(msg))
	exch.Handler().ServeHTTP(&discardWriter{h: http.Header{}}, post)
	l.m["cluster.lookup_ns"] = l.batched("cluster.Exchange.Lookup", leafRounds, leafBatch, func(int) { sinkStr, _, _ = exch.Lookup("t0", page.path, page.current().tag) }, nil)

	gate := resilience.NewGate(resilience.GateOptions{MaxInflight: daemonMaxInflight})
	ctx := context.Background()
	l.m["resilience.gate_ns"] = l.batched("resilience.Gate", leafRounds, leafBatch, func(int) {
		if gate.AcquireSlot(ctx) == nil {
			gate.Release()
		}
	}, nil)
	hist := telemetry.NewRegistry().Histogram("bench.observe_ns")
	l.m["telemetry.observe_ns"] = l.batched("telemetry.Histogram.Observe", leafRounds, leafBatch, func(i int) { hist.Observe(int64(1000 + i)) }, nil)
}

// clientHalf times the simulator's layers in process: whole page loads on
// the virtual clock under both schemes, and the per-fetch decisions of the
// Service Worker and the HTTP cache.
func (l *ledger) clientHalf(seed int64) error {
	const sites = 3
	params := webgen.Params{Seed: seed, Sites: sites}
	cond := harness.Median5G()
	var catUS, convUS []int64
	var netReqs, val304, localHits, fetches float64
	var loads float64
	for i := 0; i < sites; i++ {
		l.m["webgen.generate_ms_per_site"] += l.each("webgen.GenerateOne+content", 1, func(int) {
			site := webgen.GenerateOne(params, i, vclock.NewVirtual(vclock.Epoch))
			c := site.Content()
			for _, p := range c.Paths() {
				sink, _ = c.Get(p)
			}
		}) / 1e6 / sites

		cat := harness.NewWorld(params, i, harness.SchemeCatalyst, netsim.TransportOptions{})
		conv := harness.NewWorld(params, i, harness.SchemeConventional, netsim.TransportOptions{})
		if _, err := cat.Load(cond); err != nil {
			return err
		}
		if _, err := conv.Load(cond); err != nil {
			return err
		}
		var prev time.Duration
		for _, d := range harness.PaperDelays() {
			cat.Advance(d - prev)
			conv.Advance(d - prev)
			prev = d
			var err error
			sp := l.tr.timed("browser.Load(catalyst)", -1, 0, func() {
				var r browser.LoadResult
				r, err = cat.Load(cond)
				netReqs += float64(r.NetworkRequests)
				val304 += float64(r.Validations304)
			})
			if err != nil {
				return err
			}
			catUS = append(catUS, l.tr.spans[sp].End-l.tr.spans[sp].Start)
			sp = l.tr.timed("browser.Load(conventional)", -1, 0, func() { _, err = conv.Load(cond) })
			if err != nil {
				return err
			}
			convUS = append(convUS, l.tr.spans[sp].End-l.tr.spans[sp].Start)
			loads++
		}

		if worker, ok := cat.Browser.Workers().Lookup(cat.Site.Host); ok {
			st := worker.Stats()
			localHits += float64(st.LocalHits)
			fetches += float64(st.LocalHits + st.NetworkFetches)
			if i == 0 {
				keys := worker.Cache().Keys()
				if len(keys) > 0 {
					l.m["sw.handlefetch_ns"] = l.batched("sw.Worker.HandleFetch", leafRounds, leafBatch, func(k int) { sink, _ = worker.HandleFetch(keys[k%len(keys)]) }, nil)
				}
			}
		}
		if i == 0 {
			cache := conv.Browser.Cache()
			if keys := cache.Keys(); len(keys) > 0 {
				l.m["httpcache.get_ns"] = l.batched("httpcache.Cache.Get", leafRounds, leafBatch, func(k int) { sink, _ = cache.Get(keys[k%len(keys)]) }, nil)
			}
		}
	}
	l.m["browser.load_catalyst_us"] = medianInt64(catUS) / 1000
	l.m["browser.load_conventional_us"] = medianInt64(convUS) / 1000
	l.m["browser.net_requests_per_load"] = per(netReqs, loads)
	l.m["browser.validations304_per_load"] = per(val304, loads)
	l.m["sw.local_hit_pct"] = pct(localHits, fetches)
	return nil
}
