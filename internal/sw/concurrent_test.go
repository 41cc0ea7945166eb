package sw

import (
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"

	"cachecatalyst/internal/core"
	"cachecatalyst/internal/httpcache"
)

// TestCacheStorageConcurrentWorkers drives one CacheStorage from many
// goroutines — the shape of several Service Worker contexts sharing one
// origin cache — and audits every stored response afterwards. Run under
// -race this pins the store as safe for concurrent use.
func TestCacheStorageConcurrentWorkers(t *testing.T) {
	t.Parallel()
	c := NewCacheStorage()

	const workers = 12
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			body := strings.Repeat("b", 128)
			for i := 0; i < 400; i++ {
				path := fmt.Sprintf("/asset-%d", (w*17+i*3)%80)
				if i%2 == 0 {
					// Replacements of every length race the matches.
					c.Put(path, resp(fmt.Sprintf("t%d", i), body[:1+i%len(body)], nil))
				} else if got, ok := c.Match(path); ok && len(got.Body) == 0 {
					t.Error("matched an empty body")
					return
				}
			}
		}(w)
	}
	wg.Wait()

	for _, k := range c.Keys() {
		if r, ok := c.Match(k); !ok || len(r.Body) == 0 {
			t.Fatalf("%s: stored response %+v, %v", k, r, ok)
		}
	}
	if c.Len() != 80 {
		t.Fatalf("storage holds %d paths after stress, want all 80", c.Len())
	}
}

// TestWorkerMapSwapRacesFetches runs navigations, alternating two maps,
// against subresource fetches and stores on one worker — the shape of one
// catalyst.Client shared across goroutines, with responses landing in its
// CacheStorage meanwhile. Under -race this pins the map's publication;
// functionally, a resource both maps prove current is always served
// locally, whichever map a fetch reads, and a 404 is never served locally.
func TestWorkerMapSwapRacesFetches(t *testing.T) {
	t.Parallel()
	w := NewWorker()
	both := core.ETagMap{"/a.css": {Opaque: "v1"}}
	second := core.ETagMap{"/a.css": {Opaque: "v1"}, "/b.js": {Opaque: "v2"}}
	w.OnSubresourceResponse("/a.css", resp("v1", "a", nil))
	w.OnSubresourceResponse("/b.js", resp("v2", "b", nil))
	w.OnNavigationResponse(navResp(both))

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				m := both
				if i%2 == 1 {
					m = second
				}
				w.OnNavigationResponse(navResp(m))
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				gone := fmt.Sprintf("/gone-%d", i%8)
				w.OnSubresourceResponse(gone, &httpcache.Response{StatusCode: http.StatusNotFound, Header: http.Header{}})
				if _, ok := w.HandleFetch(gone); ok {
					t.Errorf("%s, a 404, was served locally", gone)
					return
				}
				if _, ok := w.HandleFetch("/a.css"); !ok {
					t.Error("/a.css, current under both maps, was not served locally")
					return
				}
				if got, ok := w.HandleFetch("/b.js"); ok && string(got.Body) != "b" {
					t.Errorf("/b.js served %q", got.Body)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := w.Stats().MapUpdates; got != 1+4*200 {
		t.Fatalf("MapUpdates = %d, want %d", got, 1+4*200)
	}
}
