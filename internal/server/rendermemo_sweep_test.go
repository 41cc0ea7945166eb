package server_test

import (
	"context"
	"testing"

	"cachecatalyst/internal/harness"
	"cachecatalyst/internal/server"
)

// TestMemoisedRendersAreExact is the differential test of the render memo,
// the server half of internal/browser's TestMemoisedParsesAreExact: after
// the quick scheme matrix and a two-site headline sweep, every render every
// site's memo holds must equal a fresh decorate.NewRender of its page's
// Resource at its URL. A memo keyed by anything that does not commit to the
// page's bytes and URL, or a server that writes into a render it shares,
// leaves a render that differs.
func TestMemoisedRendersAreExact(t *testing.T) {
	headline := harness.DefaultConfig()
	headline.Corpus.Sites, headline.Corpus.Scale = 2, 0.6
	var matrixErr, headlineErr error
	memos := server.CollectRenderMemos(func() {
		_, matrixErr = harness.RunSchemeMatrixContext(context.Background(), harness.QuickMatrixConfig(), harness.MatrixSchemes)
		_, headlineErr = harness.RunHeadline(headline)
	})
	if matrixErr != nil || headlineErr != nil {
		t.Fatal(matrixErr, headlineErr)
	}
	renders := 0
	for _, m := range memos {
		n, err := m.Recheck()
		if err != nil {
			t.Error(err)
		}
		renders += n
	}
	if renders == 0 {
		t.Fatal("the sweeps stored no render in a memo; the servers do not render through one")
	}
	t.Logf("%d memos made, %d renders checked", len(memos), renders)
}
