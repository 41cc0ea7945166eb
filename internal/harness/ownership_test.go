package harness

import (
	"crypto/sha256"
	"fmt"
	"net/http"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"cachecatalyst/internal/httpcache"
	"cachecatalyst/internal/netsim"
	"cachecatalyst/internal/webgen"
)

// bodyLedger wraps an origin and fingerprints every body it hands out,
// keeping the slice itself so the fingerprint can be taken again later.
type bodyLedger struct {
	mu      sync.Mutex
	entries []ledgerEntry
}

type ledgerEntry struct {
	world int // which world's origin handed the body out
	where string
	body  []byte
	sum   [sha256.Size]byte
}

func (l *bodyLedger) wrap(world int, where string, inner netsim.Origin) netsim.Origin {
	return ledgerOrigin{l, world, where, inner}
}

type ledgerOrigin struct {
	l     *bodyLedger
	world int
	where string
	inner netsim.Origin
}

func (o ledgerOrigin) RoundTrip(req *netsim.Request) *httpcache.Response {
	resp := o.inner.RoundTrip(req)
	if len(resp.Body) > 0 {
		o.l.mu.Lock()
		o.l.entries = append(o.l.entries, ledgerEntry{o.world, o.where + " " + req.Path, resp.Body, sha256.Sum256(resp.Body)})
		o.l.mu.Unlock()
	}
	return resp
}

// TestBodiesAreNeverWritten guards the ownership rule on httpcache.Response:
// the origin adapter, the HTTP cache, the Service Worker's CacheStorage, the
// parsers and the bundler share one body slice, so none of them may write a
// body once it is handed out. It runs the quick scheme matrix — all five
// schemes — with chaos truncation and map corruption on every origin,
// fingerprints every body on both sides of the chaos layer (the server's own
// slice, and the possibly truncated view the browser receives), and re-takes
// every fingerprint after the whole run.
// Worlds are built the way the sweeps build them: one generated site per
// index, every condition and scheme on a view of it with the site's parse
// and render memos, so one body (a page render included) reaches many
// worlds' browsers and parsers and a write in any of them would show in the
// others.
func TestBodiesAreNeverWritten(t *testing.T) {
	cfg := QuickMatrixConfig()
	chaos := netsim.ChaosConfig{Seed: 33, TruncateProb: 0.15, CorruptMapProb: 0.1}
	var ledger bodyLedger
	var loads, worlds int
	var chaosOrigins []*netsim.ChaosOrigin
	for site := 0; site < cfg.Corpus.Sites; site++ {
		shared, memos := generate(cfg.Corpus, site), newSiteMemos()
		for ci, cond := range cfg.Grid {
			for _, scheme := range MatrixSchemes {
				w := newWorld(shared, memos, scheme, cfg.Transport)
				w.Browser.MaxFetchRetries = 2
				for host, o := range w.Origins {
					name := fmt.Sprintf("%v/%v/%s", cond, scheme, host)
					c := chaos
					c.Seed += int64(ci*100 + site)
					co := netsim.NewChaosOrigin(ledger.wrap(worlds, name+" server", o), c)
					chaosOrigins = append(chaosOrigins, co)
					w.Origins[host] = ledger.wrap(worlds, name+" browser", co)
				}
				if _, err := w.revisit(cond, cfg.Delays, webgen.PagePath); err != nil {
					t.Fatal(err)
				}
				loads += 1 + len(cfg.Delays)
				worlds++
			}
		}
	}
	if len(ledger.entries) < 10*loads {
		t.Fatalf("ledger saw %d bodies over %d loads; the wrapper is not in the path", len(ledger.entries), loads)
	}
	// reached[first byte of a body's array] = the worlds whose browsers got it.
	reached := make(map[*byte]map[int]bool)
	shared := 0
	for _, e := range ledger.entries {
		if !strings.Contains(e.where, " browser ") {
			continue
		}
		ws := reached[&e.body[0]]
		if ws == nil {
			ws = make(map[int]bool)
			reached[&e.body[0]] = ws
		}
		if ws[e.world] = true; len(ws) == 2 {
			shared++
		}
	}
	if shared == 0 {
		t.Fatal("no body reached two worlds' browsers; the worlds do not share their site's bodies")
	}
	var truncations int64
	for _, co := range chaosOrigins {
		truncations += co.Stats().Truncations
	}
	if truncations == 0 {
		t.Fatal("no response was truncated; the chaos layer is not in the path")
	}
	bad := 0
	for _, e := range ledger.entries {
		if sha256.Sum256(e.body) != e.sum {
			if bad++; bad <= 5 {
				t.Errorf("%s: body written after it was handed out", e.where)
			}
		}
	}
	if bad > 0 {
		t.Errorf("%d of %d bodies changed after they were handed out", bad, len(ledger.entries))
	}
}

// headerLedger fingerprints every header a world's client stores hold,
// keyed by the map itself, so a header stored in both the HTTP cache and
// CacheStorage is one entry.
type headerLedger struct {
	entries map[uintptr]*headerEntry
	// shared counts headers one world's two stores both held.
	shared int
	// written counts failed checks; the first few are reported.
	written int
}

type headerEntry struct {
	where  string
	header http.Header // keeps the map, and so its key, alive
	sum    [sha256.Size]byte
}

// headerSum fingerprints a header's fields in a fixed order.
func headerSum(h http.Header) [sha256.Size]byte {
	keys := make([]string, 0, len(h))
	for k := range h {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	d := sha256.New()
	for _, k := range keys {
		fmt.Fprintf(d, "%q:%q\n", k, h[k])
	}
	return [sha256.Size]byte(d.Sum(nil))
}

// take fingerprints the headers w's stores hold after a load. A header
// already fingerprinted after an earlier load must still match.
func (l *headerLedger) take(t *testing.T, where string, w *World) {
	t.Helper()
	held := make(map[uintptr]bool)
	record := func(store string, h http.Header) {
		p := reflect.ValueOf(h).Pointer()
		if held[p] {
			l.shared++
		}
		held[p] = true
		if e, ok := l.entries[p]; ok {
			l.check(t, e, where)
			return
		}
		l.entries[p] = &headerEntry{where + " " + store, h, headerSum(h)}
	}
	cache := w.Browser.Cache()
	for _, k := range cache.Keys() {
		e, _ := cache.Peek(k)
		record("cache "+k, e.Response.Header)
	}
	if worker, ok := w.Browser.Workers().Lookup(w.Site.Host); ok {
		for _, k := range worker.Cache().Keys() {
			r, _ := worker.Cache().Match(k)
			record("worker "+k, r.Header)
		}
	}
}

// check re-takes e's fingerprint at when.
func (l *headerLedger) check(t *testing.T, e *headerEntry, when string) {
	t.Helper()
	if headerSum(e.header) != e.sum {
		if l.written++; l.written <= 5 {
			t.Errorf("%s: header written after it was stored (seen %s)", e.where, when)
		}
	}
}

// TestHeadersAreNeverWritten guards the ownership rule's header half: the
// HTTP cache and the Service Worker's CacheStorage keep the response they
// are handed, header map included, so nothing may write a header once it
// is handed on. It runs the quick scheme matrix — all five schemes — with
// chaos truncation and map corruption on every origin (the two stages that
// change a header clone it first), fingerprints every header each world's
// stores hold after every load, checks it again after each later load, and
// re-takes every fingerprint after the whole run.
func TestHeadersAreNeverWritten(t *testing.T) {
	cfg := QuickMatrixConfig()
	chaos := netsim.ChaosConfig{Seed: 33, TruncateProb: 0.15, CorruptMapProb: 0.1}
	ledger := headerLedger{entries: make(map[uintptr]*headerEntry)}
	var truncations, corruptions int64
	for site := 0; site < cfg.Corpus.Sites; site++ {
		shared, memos := generate(cfg.Corpus, site), newSiteMemos()
		for ci, cond := range cfg.Grid {
			for _, scheme := range MatrixSchemes {
				w := newWorld(shared, memos, scheme, cfg.Transport)
				w.Browser.MaxFetchRetries = 2
				var cos []*netsim.ChaosOrigin
				for host, o := range w.Origins {
					c := chaos
					c.Seed += int64(ci*100 + site)
					co := netsim.NewChaosOrigin(o, c)
					cos = append(cos, co)
					w.Origins[host] = co
				}
				var at time.Duration
				for _, d := range append([]time.Duration{0}, cfg.Delays...) {
					w.Advance(d - at)
					at = d
					if _, err := w.Load(cond); err != nil {
						t.Fatal(err)
					}
					ledger.take(t, fmt.Sprintf("site %d %v/%v after the load at %v", site, cond, scheme, d), w)
				}
				for _, co := range cos {
					truncations += co.Stats().Truncations
					corruptions += co.Stats().CorruptedMaps
				}
			}
		}
	}
	if len(ledger.entries) < 100 {
		t.Fatalf("the stores held %d headers over the run; the ledger is not reading them", len(ledger.entries))
	}
	if ledger.shared == 0 {
		t.Fatal("no header was held by both of a world's stores; the stores do not share the response they are handed")
	}
	if truncations == 0 || corruptions == 0 {
		t.Fatalf("%d truncations, %d corrupted maps; the chaos layer is not in the path", truncations, corruptions)
	}
	t.Logf("%d stored headers, %d held by both of a world's stores at once; %d truncations, %d corrupted maps",
		len(ledger.entries), ledger.shared, truncations, corruptions)
	for _, e := range ledger.entries {
		ledger.check(t, e, "at the end of the run")
	}
	if ledger.written > 0 {
		t.Errorf("%d checks of %d stored headers found one changed after it was stored", ledger.written, len(ledger.entries))
	}
}
