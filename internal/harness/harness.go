// Package harness runs the paper's experiments: it wires corpus sites,
// servers, baselines and emulated browsers into measurement worlds, sweeps
// the network-condition grid and revisit delays of §4, and aggregates the
// rows and series behind every figure the paper reports (plus the ablations
// DESIGN.md calls out).
package harness

import (
	"fmt"
	"net/http"
	"net/url"
	"time"

	"cachecatalyst/catalyst"
	"cachecatalyst/internal/baselines"
	"cachecatalyst/internal/browser"
	"cachecatalyst/internal/etag"
	"cachecatalyst/internal/netsim"
	"cachecatalyst/internal/server"
	"cachecatalyst/internal/vclock"
	"cachecatalyst/internal/webgen"
)

// Scheme identifies a complete client+server configuration under test.
type Scheme int

// Schemes.
const (
	// SchemeConventional is the status quo: plain server, RFC 9111 cache.
	SchemeConventional Scheme = iota
	// SchemeCatalyst is the paper's preliminary implementation: static
	// DOM/CSS extraction only.
	SchemeCatalyst
	// SchemeCatalystRecord adds the §3 recording alternative, covering
	// JS-discovered resources on revisits.
	SchemeCatalystRecord
	// SchemeCatalystFull adds, on top of recording, the §6 cross-origin
	// extension: the server resolves third-party ETags itself, so the map
	// also covers CDN-hosted resources.
	SchemeCatalystFull
	// SchemeServerPush is HTTP/2 push with the push-all policy.
	SchemeServerPush
	// SchemeRDR is a remote-dependency-resolution proxy.
	SchemeRDR
	// SchemeEarlyHints is the conventional client consuming 103 Early
	// Hints: the server advertises the page's subresources as preload
	// links delivered ahead of the HTML body.
	SchemeEarlyHints
)

func (s Scheme) String() string {
	switch s {
	case SchemeConventional:
		return "conventional"
	case SchemeCatalyst:
		return "catalyst"
	case SchemeCatalystRecord:
		return "catalyst+record"
	case SchemeCatalystFull:
		return "catalyst+record+xo"
	case SchemeServerPush:
		return "server-push"
	case SchemeRDR:
		return "rdr-proxy"
	case SchemeEarlyHints:
		return "early-hints"
	}
	return "unknown"
}

// AllSchemes lists every scheme, in reporting order.
var AllSchemes = []Scheme{
	SchemeConventional, SchemeCatalyst, SchemeCatalystRecord,
	SchemeCatalystFull, SchemeServerPush, SchemeRDR,
	SchemeEarlyHints,
}

// MatrixSchemes are the five schemes of the conformance matrix, in
// reporting order. Each extension has the scheme it extends as a row of
// its own, so each row is credited with its own mechanism.
var MatrixSchemes = []Scheme{
	SchemeConventional, SchemeCatalyst, SchemeCatalystRecord,
	SchemeServerPush, SchemeEarlyHints,
}

// RDRProxyThink is the per-request origin-side processing charged under
// SchemeRDR, standing in for the proxy's dependency resolution over its
// low-latency path to the origin.
const RDRProxyThink = 5 * time.Millisecond

// World couples one site instance (on its own virtual clock) with a server
// stack and a browser under one scheme. Every world starts at the same
// virtual epoch, so content trajectories are identical across schemes —
// paired comparisons see the same versions of every resource.
type World struct {
	Scheme  Scheme
	Site    *webgen.Site
	Clock   *vclock.Virtual
	Browser *browser.Browser
	Origins browser.OriginMap
	// Front is the site's handler: its *server.Server, with
	// catalyst.Middleware in front under a decorating scheme.
	Front http.Handler
}

// NewWorld builds the world for one (site, scheme) pair on a site of its
// own, with a parse memo of its own and no render or bundle memo.
func NewWorld(p webgen.Params, siteIndex int, scheme Scheme, transport netsim.TransportOptions) *World {
	return newWorld(generate(p, siteIndex), siteMemos{parse: browser.NewParseMemo()}, scheme, transport)
}

// generate builds the siteIndex-th site at the virtual epoch. The sweeps
// generate a site once and build every world of it on a view of that one
// site, so the worlds share its bodies instead of each rendering its own,
// and its pure derived work (siteMemos) instead of each doing its own.
func generate(p webgen.Params, siteIndex int) *webgen.Site {
	return webgen.GenerateOne(p, siteIndex, vclock.NewVirtual(vclock.Epoch))
}

// siteMemos is the work a site's worlds share because it is a pure function
// of the site's bodies: the browser's parses and resolved references, the
// server's page renders, and the bundling origin's push bundles. render and
// bundle are nil for a world of its own.
type siteMemos struct {
	parse  *browser.ParseMemo
	render *catalyst.RenderMemo
	bundle *baselines.BundleMemo
}

// newSiteMemos returns the empty memos of one site.
func newSiteMemos() siteMemos {
	memos := siteMemos{parse: browser.NewParseMemo(), render: catalyst.NewRenderMemo(), bundle: baselines.NewBundleMemo()}
	if testHookNewBundleMemo != nil {
		testHookNewBundleMemo(memos.bundle)
	}
	return memos
}

// testHookNewBundleMemo, set only by tests before any sweep runs, sees every
// bundle memo newSiteMemos makes.
var testHookNewBundleMemo func(*baselines.BundleMemo)

// newWorld builds one world on a view of site: its own clock, server,
// browser and caches, reading bodies from the site's shared store and
// parsing, rendering and bundling them through memos, which the sweeps share
// among a site's worlds.
func newWorld(site *webgen.Site, memos siteMemos, scheme Scheme, transport netsim.TransportOptions) *World {
	clock := vclock.NewVirtual(vclock.Epoch)
	site = site.View(clock)

	srvOpts := server.Options{Clock: clock}
	mode := browser.Conventional
	wrap := func(o netsim.Origin) netsim.Origin { return o }
	switch scheme {
	case SchemeCatalyst:
		mode = browser.Catalyst
	case SchemeCatalystRecord:
		srvOpts.Record = true
		mode = browser.Catalyst
	case SchemeCatalystFull:
		srvOpts.Record = true
		mode = browser.Catalyst
		// The main server resolves third-party ETags by consulting the
		// CDN origin — the §6 "fetch those resources itself" strategy.
		cdnContent := site.CDNContent()
		srvOpts.CrossOriginETag = func(absURL string) (etag.Tag, bool) {
			u, err := url.Parse(absURL)
			if err != nil || u.Host != site.CDNHost {
				return etag.Tag{}, false
			}
			p := u.EscapedPath()
			if u.RawQuery != "" {
				p += "?" + u.RawQuery
			}
			res, ok := cdnContent.Get(p)
			if !ok {
				return etag.Tag{}, false
			}
			return res.ETag, true
		}
	case SchemeServerPush:
		// The map header doubles as the push manifest.
		mode = browser.Bundled
		wrap = func(o netsim.Origin) netsim.Origin {
			return baselines.NewBundleOrigin(o, baselines.PushAll, memos.bundle)
		}
	case SchemeRDR:
		mode = browser.Bundled
		wrap = func(o netsim.Origin) netsim.Origin { return baselines.NewBundleOrigin(o, baselines.RDR, memos.bundle) }
		transport.ServerThink += RDRProxyThink
	case SchemeEarlyHints:
		srvOpts.EarlyHints = true
		mode = browser.EarlyHints
	}

	b := browser.New(clock, mode, transport).WithParseMemo(memos.parse)

	// Every scheme that ships the map has catalyst.Middleware in front of
	// the server.
	srv := server.New(site.Content(), srvOpts)
	front := http.Handler(srv)
	if mode == browser.Catalyst || mode == browser.Bundled {
		front = catalyst.ShareRenders(catalyst.Middleware(srv, catalyst.MiddlewareOptions{}), memos.render)
	}
	cdn := server.New(site.CDNContent(), server.Options{Clock: clock})
	return &World{
		Scheme:  scheme,
		Site:    site,
		Clock:   clock,
		Browser: b,
		Origins: browser.OriginMap{
			site.Host:    wrap(server.NewOrigin(front)),
			site.CDNHost: server.NewOrigin(cdn),
		},
		Front: front,
	}
}

// Load performs one navigation to the site's homepage.
func (w *World) Load(cond netsim.Conditions) (browser.LoadResult, error) {
	return w.Browser.Load(w.Origins, cond, w.Site.Host, webgen.PagePath)
}

// LoadPage navigates to an arbitrary page on the site.
func (w *World) LoadPage(cond netsim.Conditions, path string) (browser.LoadResult, error) {
	return w.Browser.Load(w.Origins, cond, w.Site.Host, path)
}

// Advance moves the world's virtual clock forward — the "advance the system
// clock between visits" step of the paper's methodology.
func (w *World) Advance(d time.Duration) { w.Clock.Advance(d) }

// revisit is the paper's evaluation procedure on one world (§4): a cold
// visit at the epoch, then one visit at each of delays, which are cumulative
// from the cold visit (reload after 1 min, again at 1 h, …). Every visit
// loads pages in order; the loads come back visit-major, the cold visit's
// first.
func (w *World) revisit(cond netsim.Conditions, delays []time.Duration, pages ...string) ([]browser.LoadResult, error) {
	loads := make([]browser.LoadResult, 0, (1+len(delays))*len(pages))
	var at time.Duration
	for _, d := range append([]time.Duration{0}, delays...) {
		w.Advance(d - at)
		at = d
		for _, path := range pages {
			r, err := w.LoadPage(cond, path)
			if err != nil {
				return nil, fmt.Errorf("harness: site %s: %w", w.Site.Host, err)
			}
			loads = append(loads, r)
		}
	}
	return loads, nil
}

// Config parameterizes an experiment run.
type Config struct {
	// Corpus selects the synthetic site corpus; zero Sites means 100. A
	// positive BrokenFrac adds references deployed before their assets,
	// which fail under every scheme.
	Corpus webgen.Params
	// Transport is the browser connection model.
	Transport netsim.TransportOptions
	// Grid is the network-condition sweep (Figure 3's axes).
	Grid []netsim.Conditions
	// Delays are the revisit points, measured from the cold load
	// (cumulative, matching §4: reload after 1 min, again at 1 h, …).
	Delays []time.Duration
	// Parallelism bounds concurrent measurement worlds; ≤0 means
	// GOMAXPROCS.
	Parallelism int
}

// PaperDelays are the revisit delays of §4.
func PaperDelays() []time.Duration {
	return []time.Duration{
		time.Minute, time.Hour, 6 * time.Hour, 24 * time.Hour, 7 * 24 * time.Hour,
	}
}

// PaperGrid is the throughput × latency sweep of Figure 3: 8/20/60 Mbps
// downlink against 10/20/40/80 ms RTT. 60 Mbps / 40 ms is the global-median
// 5G condition the paper highlights.
func PaperGrid() []netsim.Conditions {
	var grid []netsim.Conditions
	for _, mbps := range []float64{8, 20, 60} {
		for _, ms := range []int{10, 20, 40, 80} {
			grid = append(grid, netsim.Conditions{
				RTT:         time.Duration(ms) * time.Millisecond,
				DownlinkBps: mbps * 1e6,
			})
		}
	}
	return grid
}

// Median5G is the condition the paper quotes as the global 5G median.
func Median5G() netsim.Conditions {
	return netsim.Conditions{RTT: 40 * time.Millisecond, DownlinkBps: 60e6}
}

// DefaultConfig reproduces the paper's full scale: 100 sites, the full
// grid, all five delays.
func DefaultConfig() Config {
	return Config{
		Corpus: webgen.Params{Sites: 100, Seed: 1},
		Grid:   PaperGrid(),
		Delays: PaperDelays(),
	}
}

// QuickConfig is a scaled-down configuration for tests and smoke runs.
func QuickConfig() Config {
	return Config{
		Corpus: webgen.Params{Sites: 6, Seed: 1, Scale: 0.4},
		Grid: []netsim.Conditions{
			{RTT: 40 * time.Millisecond, DownlinkBps: 8e6},
			{RTT: 40 * time.Millisecond, DownlinkBps: 60e6},
		},
		Delays: []time.Duration{time.Hour, 24 * time.Hour},
	}
}

func (c Config) validate() error {
	if len(c.Grid) == 0 {
		return fmt.Errorf("harness: empty network grid")
	}
	for i := 1; i < len(c.Delays); i++ {
		if c.Delays[i] <= c.Delays[i-1] {
			return fmt.Errorf("harness: delays must be strictly increasing")
		}
	}
	return nil
}
