package harness

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"sync"
	"testing"

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
