package browser_test

import (
	"testing"

	"cachecatalyst/internal/browser"
	"cachecatalyst/internal/harness"
)

// TestMemoisedParsesAreExact is the differential test of the parse memo.
// After the quick scheme matrix and a two-site headline sweep, every entry
// of every memo the sweeps made (each site's, shared by its worlds, and each
// browser's own) must equal a fresh parse of its key: an HTML body's
// resources and base href, a stylesheet's references, a script's fetches.
// A memo keyed by anything but the body's bytes, or a caller that writes
// into a result the memo handed it, leaves an entry that differs.
func TestMemoisedParsesAreExact(t *testing.T) {
	headline := harness.DefaultConfig()
	headline.Corpus.Sites, headline.Corpus.Scale = 2, 0.6
	var matrixErr, headlineErr error
	memos := browser.CollectMemos(func() {
		_, matrixErr = harness.RunSchemeMatrix(harness.QuickMatrixConfig())
		_, headlineErr = harness.RunHeadline(headline)
	})
	if matrixErr != nil || headlineErr != nil {
		t.Fatal(matrixErr, headlineErr)
	}
	entries, filled := 0, 0
	for _, m := range memos {
		n, err := m.Recheck()
		if err != nil {
			t.Error(err)
		}
		if entries += n; n > 0 {
			filled++
		}
	}
	if entries == 0 {
		t.Fatal("the sweeps stored nothing in a memo; the browser does not parse through one")
	}
	t.Logf("%d memos made, %d hold entries, %d entries checked", len(memos), filled, entries)
}
