package webgen

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
	"time"

	"cachecatalyst/internal/server"
	"cachecatalyst/internal/vclock"
)

// TestRenderedBodiesPinned pins every body of two fixed sites, both origins,
// at three points in virtual time (so resources have changed version), to
// the SHA-256 the generator produced when these hashes were recorded. Any
// change to how a page, stylesheet, script or binary is rendered changes a
// hash; a rewrite of the renderers must keep them.
func TestRenderedBodiesPinned(t *testing.T) {
	want := map[string]string{
		"desktop": "7d911635e9ceac56af0fd572584c696ed1eb3a2b96f277c37714daf3bc2a3272",
		"mobile":  "53724a8ac56891e9f65f405aa8258981b886e92440be73d6b04c47bccb524dee",
	}
	for name, p := range map[string]Params{
		"desktop": {Seed: 11, FingerprintFrac: 0.3, BrokenFrac: 0.1},
		"mobile":  {Seed: 12, Profile: ProfileMobile},
	} {
		h := sha256.New()
		for i := 0; i < 2; i++ {
			clock := vclock.NewVirtual(vclock.Epoch)
			site := GenerateOne(p, i, clock)
			for _, d := range []time.Duration{0, 25 * time.Hour, 8 * 24 * time.Hour} {
				clock.Set(vclock.Epoch.Add(d))
				for _, c := range []server.Content{site.Content(), site.CDNContent()} {
					for _, path := range c.Paths() {
						h.Write([]byte(path))
						if res, ok := c.Get(path); ok {
							h.Write(res.Body)
						}
					}
				}
			}
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != want[name] {
			t.Errorf("%s bodies hash to %s, want %s", name, got, want[name])
		}
	}
}
