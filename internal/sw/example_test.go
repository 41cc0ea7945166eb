package sw_test

import (
	"fmt"
	"net/http"

	"cachecatalyst/internal/core"
	"cachecatalyst/internal/etag"
	"cachecatalyst/internal/httpcache"
	"cachecatalyst/internal/sw"
)

// subresource is a 200 response carrying a strong ETag.
func subresource(opaque, body string) *httpcache.Response {
	h := make(http.Header)
	h.Set("Etag", etag.Tag{Opaque: opaque}.String())
	return &httpcache.Response{StatusCode: 200, Header: h, Body: []byte(body)}
}

// siteWorker is an app-shell worker of the kind sites already deploy.
type siteWorker map[string]string

func (s siteWorker) HandleFetch(path string) (*httpcache.Response, bool) {
	body, ok := s[path]
	if !ok {
		return nil, false
	}
	return &httpcache.Response{StatusCode: 200, Header: make(http.Header), Body: []byte(body)}, true
}

// Example_figure2 walks the two request paths of the paper's Figure 2.
// ① Without a Service Worker every request travels to the origin. ② Once
// the first navigation registers the CacheCatalyst worker, subresource
// requests are intercepted and answered locally when the proactive ETag map
// vouches for the cached copy. ③ A site-provided worker keeps priority for
// the routes it claims.
func Example_figure2() {
	registry := sw.NewRegistry()
	if _, ok := registry.Lookup("shop.example"); !ok {
		fmt.Println("① no worker: GET /style.css goes to the network")
	}

	worker := registry.Register("shop.example")
	worker.OnSubresourceResponse("/style.css", subresource("v1", "body { color: teal }"))
	worker.OnSubresourceResponse("/app.js", subresource("v7", "boot()"))
	fmt.Printf("② first visit cached %d resources\n", worker.Cache().Len())

	// A later navigation delivers the map: style.css unchanged, app.js not.
	nav := &httpcache.Response{StatusCode: 200, Header: make(http.Header)}
	nav.Header.Set(core.HeaderName, core.ETagMap{
		"/style.css": {Opaque: "v1"},
		"/app.js":    {Opaque: "v8"},
	}.Encode())
	worker.OnNavigationResponse(nav)
	for _, path := range []string{"/style.css", "/app.js"} {
		if r, ok := worker.HandleFetch(path); ok {
			fmt.Printf("  GET %-10s → served from the worker cache: %q\n", path, r.Body)
		} else {
			fmt.Printf("  GET %-10s → tag mismatch, forwarded to the origin\n", path)
		}
	}
	st := worker.Stats()
	fmt.Printf("  local hits %d, forwarded %d\n", st.LocalHits, st.NetworkFetches)

	both := sw.NewWorker().WithSiteWorker(siteWorker{"/offline.html": "you are offline"})
	both.OnSubresourceResponse("/style.css", subresource("v1", "css"))
	both.OnNavigationResponse(nav)
	if r, ok := both.HandleFetch("/offline.html"); ok {
		fmt.Printf("③ GET /offline.html → the site's worker: %q\n", r.Body)
	}
	if _, ok := both.HandleFetch("/style.css"); ok {
		fmt.Println("  GET /style.css    → catalyst still serves unclaimed routes")
	}
	// Output:
	// ① no worker: GET /style.css goes to the network
	// ② first visit cached 2 resources
	//   GET /style.css → served from the worker cache: "body { color: teal }"
	//   GET /app.js    → tag mismatch, forwarded to the origin
	//   local hits 1, forwarded 1
	// ③ GET /offline.html → the site's worker: "you are offline"
	//   GET /style.css    → catalyst still serves unclaimed routes
}
