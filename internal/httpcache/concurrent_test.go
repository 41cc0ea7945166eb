package httpcache

import (
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"cachecatalyst/internal/vclock"
)

// TestCacheConcurrentStress exercises the browser cache from many
// goroutines at once — Gets racing Puts racing Refreshes — and then audits
// every stored entry. Run under -race this pins the cache as safe for
// concurrent use.
func TestCacheConcurrentStress(t *testing.T) {
	t.Parallel()
	clock := vclock.NewVirtual(time.Unix(1_700_000_000, 0))
	c := New(clock)

	mkResp := func(i int) *Response {
		h := make(http.Header)
		h.Set("Cache-Control", "max-age=60")
		h.Set("Etag", fmt.Sprintf(`"tag-%d"`, i))
		return &Response{
			StatusCode: http.StatusOK,
			Header:     h,
			Body:       []byte(strings.Repeat("x", 256)),
		}
	}

	const goroutines = 12
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				url := fmt.Sprintf("https://site.example/a-%d", (g*13+i*5)%100)
				now := clock.Now()
				switch i % 4 {
				case 0:
					c.Put(url, mkResp(i), now, now)
				case 1:
					if e, state := c.Get(url); state != Miss && e == nil {
						t.Error("non-miss state with nil entry")
						return
					}
				case 2:
					nm := &Response{StatusCode: http.StatusNotModified, Header: make(http.Header)}
					nm.Header.Set("Cache-Control", "max-age=120")
					c.Refresh(url, nm, now, now)
				case 3:
					c.Peek(url)
				}
			}
		}(g)
	}
	wg.Wait()

	keys := c.Keys()
	// Puts reach 60 of the 100 URLs: (13g + 20k) mod 100 over the 12
	// goroutines' g.
	if len(keys) != c.Len() || len(keys) != 60 {
		t.Fatalf("%d keys, Len() = %d, want the 60 URLs put", len(keys), c.Len())
	}
	for _, k := range keys {
		if e, ok := c.Peek(k); !ok || e.URL != k || len(e.Response.Body) != 256 {
			t.Fatalf("%s: stored entry %+v, %v", k, e, ok)
		}
	}
	st := c.Stats()
	if st.Hits+st.Misses == 0 {
		t.Fatal("stress recorded no lookups")
	}
}

// TestRefreshDoesNotMutateSharedEntry pins the clone-and-replace contract:
// an Entry handed out before a Refresh must not change underneath its
// holder.
func TestRefreshDoesNotMutateSharedEntry(t *testing.T) {
	clock := vclock.NewVirtual(time.Unix(1_700_000_000, 0))
	c := New(clock)
	h := make(http.Header)
	h.Set("Cache-Control", "max-age=10")
	h.Set("X-Version", "one")
	now := clock.Now()
	c.Put("https://site.example/r", &Response{StatusCode: 200, Header: h, Body: []byte("b")}, now, now)

	held, _ := c.Peek("https://site.example/r")

	nm := &Response{StatusCode: http.StatusNotModified, Header: make(http.Header)}
	nm.Header.Set("X-Version", "two")
	c.Refresh("https://site.example/r", nm, clock.Now(), clock.Now())

	if got := held.Response.Header.Get("X-Version"); got != "one" {
		t.Fatalf("Refresh mutated a shared entry: X-Version = %q", got)
	}
	fresh, _ := c.Peek("https://site.example/r")
	if got := fresh.Response.Header.Get("X-Version"); got != "two" {
		t.Fatalf("Refresh did not apply headers: X-Version = %q", got)
	}
}
