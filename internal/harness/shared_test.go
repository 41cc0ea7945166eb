package harness

import (
	"bytes"
	"context"
	"reflect"
	"testing"
	"time"

	"cachecatalyst/internal/browser"
	"cachecatalyst/internal/netsim"
	"cachecatalyst/internal/vclock"
	"cachecatalyst/internal/webgen"
)

// sharedCorpus has what the default corpora lack and a shared body store
// has to get right: pages that embed fingerprinted assets' version stamps,
// and references deployed before their assets (404 until they appear).
var sharedCorpus = webgen.Params{Sites: 3, Seed: 13, Scale: 0.35, FingerprintFrac: 0.3, BrokenFrac: 0.15}

var sharedGrid = []netsim.Conditions{Median5G(), {RTT: 80 * time.Millisecond, DownlinkBps: 8e6}}

var sharedDelays = []time.Duration{time.Hour, 24 * time.Hour, 7 * 24 * time.Hour}

// TestSweepsMatchPrivateSites is the differential test of the shared site:
// RunFig3 and RunSchemeMatrixContext, whose worlds are views of one site per index,
// must equal bit for bit a reference that builds every world with NewWorld,
// on a site of its own, and folds the trials the same way.
func TestSweepsMatchPrivateSites(t *testing.T) {
	stamped := 0
	for i := 0; i < sharedCorpus.Sites; i++ {
		clock := vclock.NewVirtual(vclock.Epoch)
		site := webgen.GenerateOne(sharedCorpus, i, clock)
		cold, _ := site.Content().Get(webgen.PagePath)
		clock.Advance(sharedDelays[len(sharedDelays)-1])
		warm, _ := site.Content().Get(webgen.PagePath)
		if bytes.Contains(cold.Body, []byte("?v=")) && !bytes.Equal(cold.Body, warm.Body) {
			stamped++
		}
	}
	if stamped == 0 {
		t.Fatal("no page embeds a fingerprinted asset's stamp; the corpus does not exercise the store's page key")
	}

	cfg := Config{Corpus: sharedCorpus, Grid: sharedGrid, Delays: sharedDelays, Parallelism: 2}
	// private[cond][scheme][site] is what revisits returns, from worlds that
	// are each built with NewWorld, on a site of their own, outside run.
	private := func(schemes []Scheme) [][][][]browser.LoadResult {
		loads := make([][][][]browser.LoadResult, len(cfg.Grid))
		for ci, cond := range cfg.Grid {
			loads[ci] = make([][][]browser.LoadResult, len(schemes))
			for si, scheme := range schemes {
				loads[ci][si] = make([][]browser.LoadResult, cfg.Corpus.Sites)
				for site := range loads[ci][si] {
					w := NewWorld(cfg.Corpus, site, scheme, cfg.Transport)
					var err error
					if loads[ci][si][site], err = w.revisit(cond, cfg.Delays, webgen.PagePath); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		return loads
	}

	got, err := RunFig3(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if want := foldPaired(cfg, SchemeConventional, SchemeCatalyst, private([]Scheme{SchemeConventional, SchemeCatalyst})); !reflect.DeepEqual(got, want) {
		t.Errorf("RunFig3 over shared sites differs from private sites:\n%+v\n%+v", got, want)
	}

	gotM, err := RunSchemeMatrixContext(context.Background(), cfg, MatrixSchemes)
	if err != nil {
		t.Fatal(err)
	}
	if want := foldMatrix(cfg, MatrixSchemes, private(MatrixSchemes)); !reflect.DeepEqual(gotM, want) {
		t.Errorf("RunSchemeMatrixContext over shared sites differs from private sites:\n%+v\n%+v", gotM, want)
	}
}
