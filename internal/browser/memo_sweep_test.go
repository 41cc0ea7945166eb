package browser_test

import (
	"context"
	"testing"

	"cachecatalyst/internal/browser"
	"cachecatalyst/internal/harness"
)

// TestMemoisedParsesAreExact is the differential test of the parse memo.
// After the quick scheme matrix and a two-site headline sweep, every entry
// of every memo the sweeps made (each site's, shared by its worlds, and each
// browser's own) must equal what it is derived from, done afresh: the parse
// of the bytes behind each identity key and each content key, and the
// resolve of each body's parse against each document URL it was resolved
// for. A memo that keys a body by anything that does not commit to its
// bytes, or a caller that writes into a result the memo handed it, leaves an
// entry that differs. (The renders a site's servers share are checked the
// same way by internal/server's TestMemoisedRendersAreExact.)
func TestMemoisedParsesAreExact(t *testing.T) {
	headline := harness.DefaultConfig()
	headline.Corpus.Sites, headline.Corpus.Scale = 2, 0.6
	var matrixErr, headlineErr error
	memos := browser.CollectMemos(func() {
		_, matrixErr = harness.RunSchemeMatrixContext(context.Background(), harness.QuickMatrixConfig(), harness.MatrixSchemes)
		_, headlineErr = harness.RunHeadline(headline)
	})
	if matrixErr != nil || headlineErr != nil {
		t.Fatal(matrixErr, headlineErr)
	}
	n, err := browser.Recheck(memos)
	if err != nil {
		t.Error(err)
	}
	if n.Identity == 0 || n.Content == 0 || n.Resolved == 0 || n.Manifests == 0 {
		t.Fatalf("the sweeps stored %+v in the memos; the browser does not parse and resolve through one", n)
	}
	t.Logf("%d memos made; %d identity, %d content, %d resolved and %d manifest entries checked", len(memos), n.Identity, n.Content, n.Resolved, n.Manifests)
}
