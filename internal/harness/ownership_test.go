package harness

import (
	"crypto/sha256"
	"fmt"
	"sync"
	"testing"
	"time"

	"cachecatalyst/internal/httpcache"
	"cachecatalyst/internal/netsim"
)

// bodyLedger wraps an origin and fingerprints every body it hands out,
// keeping the slice itself so the fingerprint can be taken again later.
type bodyLedger struct {
	mu      sync.Mutex
	entries []ledgerEntry
}

type ledgerEntry struct {
	where string
	body  []byte
	sum   [sha256.Size]byte
}

func (l *bodyLedger) wrap(where string, inner netsim.Origin) netsim.Origin {
	return ledgerOrigin{l, where, inner}
}

type ledgerOrigin struct {
	l     *bodyLedger
	where string
	inner netsim.Origin
}

func (o ledgerOrigin) RoundTrip(req *netsim.Request) *httpcache.Response {
	resp := o.inner.RoundTrip(req)
	if len(resp.Body) > 0 {
		o.l.mu.Lock()
		o.l.entries = append(o.l.entries, ledgerEntry{o.where + " " + req.Path, resp.Body, sha256.Sum256(resp.Body)})
		o.l.mu.Unlock()
	}
	return resp
}

// TestBodiesAreNeverWritten guards the ownership rule on httpcache.Response:
// the origin adapter, the HTTP cache, the Service Worker's CacheStorage, the
// parsers, the delta client and the bundler share one body slice, so none of
// them may write a body once it is handed out. It runs the quick scheme
// matrix — all six schemes, delta included — with chaos truncation and
// map corruption on every origin, fingerprints every body on both sides of
// the chaos layer (the server's own slice, and the possibly truncated view
// the browser receives), and re-takes every fingerprint after the whole run.
func TestBodiesAreNeverWritten(t *testing.T) {
	cfg := QuickMatrixConfig()
	chaos := netsim.ChaosConfig{Seed: 33, TruncateProb: 0.15, CorruptMapProb: 0.1}
	var ledger bodyLedger
	var loads int
	var chaosOrigins []*netsim.ChaosOrigin
	for ci, cond := range cfg.Grid {
		for _, scheme := range MatrixSchemes {
			for site := 0; site < cfg.Corpus.Sites; site++ {
				w := NewWorld(cfg.Corpus, site, scheme, cfg.Transport)
				w.Browser.MaxFetchRetries = 2
				for host, o := range w.Origins {
					name := fmt.Sprintf("%v/%v/%s", cond, scheme, host)
					c := chaos
					c.Seed += int64(ci*100 + site)
					co := netsim.NewChaosOrigin(ledger.wrap(name+" server", o), c)
					chaosOrigins = append(chaosOrigins, co)
					w.Origins[host] = ledger.wrap(name+" browser", co)
				}
				if _, err := w.Load(cond); err != nil {
					t.Fatal(err)
				}
				var prev time.Duration
				for _, d := range cfg.Delays {
					w.Advance(d - prev)
					prev = d
					if _, err := w.Load(cond); err != nil {
						t.Fatal(err)
					}
				}
				loads += 1 + len(cfg.Delays)
			}
		}
	}
	if len(ledger.entries) < 10*loads {
		t.Fatalf("ledger saw %d bodies over %d loads; the wrapper is not in the path", len(ledger.entries), loads)
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
