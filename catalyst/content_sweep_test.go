package catalyst_test

import (
	"context"
	"testing"

	"cachecatalyst/catalyst"
	"cachecatalyst/internal/harness"
)

// TestMemoisedRendersAreExact is the differential test of the render memo,
// the server half of internal/browser's TestMemoisedParsesAreExact: after
// the quick scheme matrix and a two-site headline sweep, every render every
// site's memo holds must equal a fresh render (newRender) of its page's
// Resource at its URL, and every stylesheet's references a fresh
// extraction of its Resource at its path. A memo keyed by anything that
// does not commit to the body's bytes and URL, or a front end that writes
// into a render or references it shares, leaves an entry that differs.
//
// Over the same sweeps, the maps' stylesheet extractions must number
// exactly the stylesheet versions the memos hold, so each version at each
// path is extracted once per site, not once per resolve. A lookup that
// extracts beside the memo, or a world whose front end reads no memo, makes
// more extractions than versions.
func TestMemoisedRendersAreExact(t *testing.T) {
	headline := harness.DefaultConfig()
	headline.Corpus.Sites, headline.Corpus.Scale = 2, 0.6
	var matrixErr, headlineErr error
	memos, extractions := catalyst.CollectRenderMemos(func() {
		_, matrixErr = harness.RunSchemeMatrixContext(context.Background(), harness.QuickMatrixConfig(), harness.MatrixSchemes)
		_, headlineErr = harness.RunHeadline(headline)
	})
	if matrixErr != nil || headlineErr != nil {
		t.Fatal(matrixErr, headlineErr)
	}
	renders, sheets := 0, 0
	for _, m := range memos {
		r, s, err := m.Recheck()
		if err != nil {
			t.Error(err)
		}
		renders += r
		sheets += s
	}
	if renders == 0 {
		t.Fatal("the sweeps stored no render in a memo; the front ends do not render through one")
	}
	if sheets == 0 {
		t.Fatal("the sweeps stored no stylesheet's references in a memo; the maps do not resolve through one")
	}
	t.Logf("%d memos made, %d renders and %d stylesheet versions checked, %d extractions on the map path", len(memos), renders, sheets, extractions)
	if extractions != sheets {
		t.Fatalf("%d stylesheet extractions for %d versions, want one per version", extractions, sheets)
	}
}
