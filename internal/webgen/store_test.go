package webgen

import (
	"bytes"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cachecatalyst/internal/server"
	"cachecatalyst/internal/vclock"
)

// storePaths lists every path a client can ask of either origin: the
// declared ones, plus each fingerprinted asset under the stamp the page
// references at now and under a stale one, since the store keys by request
// path.
func storePaths(s *Site, now time.Time) []string {
	var out []string
	for _, c := range []server.Content{s.Content(), s.CDNContent()} {
		for _, p := range c.Paths() {
			out = append(out, p)
			if spec := s.specs[p]; spec.fingerprinted {
				out = append(out, fmt.Sprintf("%s?v=%d", p, s.version(spec, now)), p+"?v=0")
			}
		}
	}
	return out
}

// getAny asks whichever origin serves path.
func getAny(s *Site, path string) (*server.Resource, bool) {
	if res, ok := s.Content().Get(path); ok {
		return res, true
	}
	return s.CDNContent().Get(path)
}

// stampChanges returns, for up to two fingerprinted assets a page
// references, a minute before and a minute after their first change: the
// moments the page's bytes change while its own version (which turns over
// every six hours at the quickest) most likely holds.
func stampChanges(s *Site) []time.Duration {
	var out []time.Duration
	for _, ref := range s.specs[PagePath].refs {
		target, ok := s.specByRef(ref)
		if !ok || !target.fingerprinted || target.period <= 0 || len(out) == 4 {
			continue
		}
		first := target.period - normPhase(target)
		out = append(out, first-time.Minute, first+time.Minute)
	}
	return out
}

// TestViewsAnswerAsFreshSites pins the body store views share. Two views of
// one site walk different schedules of clock advances at once (under -race
// in CI); at every step, for every path, each view must answer exactly what
// a site generated fresh and set to that view's time answers — body, ETag,
// Last-Modified, Content-Type, Policy, and whether it 404s. Where the two
// schedules meet, both views must hand out the same *server.Resource. The
// fingerprinted corpus is the one that needs the exact key: its pages embed
// their dependencies' versions, so a page's bytes change when a
// dependency's stamp does and its own version does not; the schedules
// straddle such changes, and the test fails if none was seen.
func TestViewsAnswerAsFreshSites(t *testing.T) {
	day := 24 * time.Hour
	coarse := [2][]time.Duration{
		{0, time.Minute, time.Hour, 6 * time.Hour, 25 * time.Hour, 4 * day, 8 * day, 20 * day},
		{0, 30 * time.Minute, time.Hour, 2 * day, 4 * day, 8 * day, 9 * day, 20 * day},
	}
	for name, p := range map[string]Params{
		"default":       {Seed: 3},
		"fingerprinted": {Seed: 3, FingerprintFrac: 0.3, BrokenFrac: 0.15},
	} {
		t.Run(name, func(t *testing.T) {
			var stampOnly atomic.Int64
			for index := 0; index < 2; index++ {
				site := GenerateOne(p, index, vclock.NewVirtual(vclock.Epoch))
				var schedules [2][]time.Duration
				for v := range schedules {
					schedules[v] = append(append([]time.Duration(nil), coarse[v]...), stampChanges(site)...)
					slices.Sort(schedules[v])
				}
				// seen[v][at][path] is what view v handed out at time at.
				var seen [2]map[time.Duration]map[string]*server.Resource
				var wg sync.WaitGroup
				for v := range schedules {
					seen[v] = make(map[time.Duration]map[string]*server.Resource)
					wg.Add(1)
					go func() {
						defer wg.Done()
						clock := vclock.NewVirtual(vclock.Epoch)
						view := site.View(clock)
						var prevOwn uint64
						var prevPage []byte
						for _, at := range schedules[v] {
							clock.Set(vclock.Epoch.Add(at))
							freshClock := vclock.NewVirtual(vclock.Epoch)
							fresh := GenerateOne(p, index, freshClock)
							freshClock.Set(vclock.Epoch.Add(at))
							seen[v][at] = make(map[string]*server.Resource)
							for _, path := range storePaths(fresh, freshClock.Now()) {
								got, okGot := getAny(view, path)
								want, okWant := getAny(fresh, path)
								if okGot != okWant {
									t.Errorf("site %d view %d at %v: %s found = %v, fresh site says %v", index, v, at, path, okGot, okWant)
									continue
								}
								if !okGot {
									continue
								}
								if !bytes.Equal(got.Body, want.Body) || got.ETag != want.ETag ||
									!got.LastModified.Equal(want.LastModified) ||
									got.ContentType != want.ContentType || got.Policy != want.Policy {
									t.Errorf("site %d view %d at %v: %s differs from a fresh site's (ETag %s, want %s)", index, v, at, path, got.ETag, want.ETag)
								}
								seen[v][at][path] = got
							}
							page, _ := getAny(fresh, PagePath)
							own := fresh.version(fresh.specs[PagePath], freshClock.Now())
							if prevPage != nil && own == prevOwn && !bytes.Equal(page.Body, prevPage) {
								stampOnly.Add(1)
							}
							prevOwn, prevPage = own, page.Body
						}
					}()
				}
				wg.Wait()
				met := 0
				for at, byPath := range seen[0] {
					other, ok := seen[1][at]
					if !ok {
						continue
					}
					for path, res := range byPath {
						met++
						if other[path] != res {
							t.Errorf("site %d at %v: the views hold different resources for %s", index, at, path)
						}
					}
				}
				if met == 0 {
					t.Fatal("the schedules never meet; nothing checks that views share resources")
				}
			}
			if name == "fingerprinted" && stampOnly.Load() == 0 {
				t.Fatal("no page changed bytes without changing its own version; a page keyed by its own version would pass")
			}
		})
	}
}
