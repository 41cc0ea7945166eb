package harness

import (
	"bytes"
	"context"
	"encoding/json"
	"sync"
	"testing"

	"cachecatalyst/internal/baselines"
)

// TestMemoisedBundlesAreExact is the differential test of the bundle memo,
// beside internal/server's TestMemoisedRendersAreExact: after the quick
// scheme matrix (push-all) and a quick baselines run (push-all and RDR),
// every bundle every site's memo holds must equal the bundle rebuilt from
// its recorded parts — the parts' bodies concatenated in order, and their
// entries marshalled — byte for byte. A memo keyed by anything that does not
// commit to every part, or a load that writes into a bundle it shares,
// leaves a bundle that differs.
func TestMemoisedBundlesAreExact(t *testing.T) {
	var mu sync.Mutex
	var memos []*baselines.BundleMemo
	testHookNewBundleMemo = func(m *baselines.BundleMemo) {
		mu.Lock()
		memos = append(memos, m)
		mu.Unlock()
	}
	defer func() { testHookNewBundleMemo = nil }()

	if _, err := RunSchemeMatrixContext(context.Background(), QuickMatrixConfig(), MatrixSchemes); err != nil {
		t.Fatal(err)
	}
	quick := QuickConfig()
	if _, err := RunBaselines(quick, quick.Grid[0], quick.Delays[0]); err != nil {
		t.Fatal(err)
	}

	bundles := 0
	for _, m := range memos {
		m.Each(func(entries []baselines.Entry, parts [][]byte, body []byte, manifest string) {
			bundles++
			page := entries[0].Path
			for i, e := range entries {
				if e.Len != len(parts[i]) {
					t.Errorf("bundle of %s: part %s records length %d, its body has %d bytes", page, e.Path, e.Len, len(parts[i]))
				}
			}
			if want := bytes.Join(parts, nil); !bytes.Equal(body, want) {
				t.Errorf("bundle of %s (%d parts): the stored body differs from its parts concatenated", page, len(parts))
			}
			want, err := json.Marshal(entries)
			if err != nil {
				t.Fatal(err)
			}
			if manifest != string(want) {
				t.Errorf("bundle of %s: the stored manifest differs from its entries marshalled:\n got %s\nwant %s", page, manifest, want)
			}
		})
	}
	if bundles == 0 {
		t.Fatal("the sweeps stored no bundle in a memo; the bundling origins do not read through one")
	}
	t.Logf("%d memos made, %d bundles checked", len(memos), bundles)
}
