package catalyst_test

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing/fstest"

	"cachecatalyst/catalyst"
)

// ExampleMiddleware retrofits CacheCatalyst onto an existing handler: one
// wrap call adds the X-Etag-Config header, the Service-Worker snippet and
// the worker script endpoint.
func ExampleMiddleware() {
	app := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/":
			w.Header().Set("Content-Type", "text/html")
			io.WriteString(w, `<html><head><link rel="stylesheet" href="/site.css"></head></html>`)
		case "/site.css":
			w.Header().Set("Content-Type", "text/css")
			io.WriteString(w, "body { margin: 0 }")
		default:
			http.NotFound(w, r)
		}
	})

	ts := httptest.NewServer(catalyst.Middleware(app, catalyst.MiddlewareOptions{}))
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/")
	if err != nil {
		panic(err)
	}
	defer resp.Body.Close()
	m, _ := catalyst.DecodeMap(resp.Header.Get(catalyst.HeaderName))
	tag, covered := m["/site.css"]
	fmt.Println("stylesheet covered:", covered)
	fmt.Println("tag is strong:", !tag.Weak)
	body, _ := io.ReadAll(resp.Body)
	fmt.Println("worker registered:", strings.Contains(string(body), "serviceWorker"))
	// Output:
	// stylesheet covered: true
	// tag is strong: true
	// worker registered: true
}

// ExampleNewServer serves a directory tree with the mechanism enabled —
// the equivalent of running cmd/catalystd.
func ExampleNewServer() {
	site := fstest.MapFS{
		"index.html": {Data: []byte(`<img src="/logo.png">`)},
		"logo.png":   {Data: []byte("PNG")},
	}
	srv, err := catalyst.NewServer(site, catalyst.ServerOptions{Policy: catalyst.DefaultPolicy})
	if err != nil {
		panic(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/")
	if err != nil {
		panic(err)
	}
	defer resp.Body.Close()
	m, _ := catalyst.DecodeMap(resp.Header.Get(catalyst.HeaderName))
	fmt.Println("map entries:", len(m))
	// Output:
	// map entries: 1
}

// ExampleClient shows the non-browser consumer: a crawler that revisits a
// page pays one request instead of one per resource.
func ExampleClient() {
	site := fstest.MapFS{
		"index.html": {Data: []byte(`<link rel="stylesheet" href="/s.css">`)},
		"s.css":      {Data: []byte("body{}")},
	}
	srv, _ := catalyst.NewServer(site, catalyst.ServerOptions{Policy: catalyst.DefaultPolicy})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	c := catalyst.NewClient(nil)
	c.Get(ts.URL + "/index.html")
	c.Get(ts.URL + "/s.css")

	// Revisit: page revalidates, stylesheet is proven current by the map.
	page, _ := c.Get(ts.URL + "/index.html")
	css, _ := c.Get(ts.URL + "/s.css")
	fmt.Println("page:", page.Source)
	fmt.Println("stylesheet:", css.Source)
	// Output:
	// page: revalidated
	// stylesheet: cache
}

// quickstartApp is an existing application that knows nothing about
// CacheCatalyst: conservative headers, so every subresource revalidates on
// every use, as deployed sites tend to have.
func quickstartApp() http.Handler {
	mux := http.NewServeMux()
	serve := func(path, ct, body string) {
		tag := catalyst.TagForBytes([]byte(body)).String()
		mux.HandleFunc(path, func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", ct)
			w.Header().Set("Cache-Control", "no-cache")
			w.Header().Set("Etag", tag)
			if r.Header.Get("If-None-Match") == tag {
				w.WriteHeader(http.StatusNotModified)
				return
			}
			io.WriteString(w, body)
		})
	}
	serve("/{$}", "text/html; charset=utf-8", `<html><head>
  <link rel="stylesheet" href="/assets/site.css">
  <script src="/assets/site.js"></script>
</head><body><img src="/assets/hero.jpg"></body></html>`)
	serve("/assets/site.css", "text/css; charset=utf-8", "body { margin: 0 }")
	serve("/assets/site.js", "text/javascript; charset=utf-8", "console.log('hi')")
	serve("/assets/hero.jpg", "image/jpeg", "JPEGDATA...")
	return mux
}

// Example_quickstart retrofits CacheCatalyst onto a stock net/http
// application with one line and compares what a revisit costs against the
// plain application and against the wrapped one, both on real loopback
// sockets. The catalyst revisit fetches only the page; its X-Etag-Config
// decides every subresource locally, which is what the Service Worker
// automates in a browser.
func Example_quickstart() {
	plain := httptest.NewServer(quickstartApp())
	defer plain.Close()
	wrapped := httptest.NewServer(catalyst.Middleware(quickstartApp(), catalyst.MiddlewareOptions{}))
	defer wrapped.Close()

	// get fetches url, conditionally when ifNoneMatch is set, and returns
	// the response with its body drained.
	get := func(url, ifNoneMatch string) *http.Response {
		req, _ := http.NewRequest("GET", url, nil)
		if ifNoneMatch != "" {
			req.Header.Set("If-None-Match", ifNoneMatch)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			panic(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp
	}

	// First visit: fetch the page and every subresource, remembering each
	// subresource's ETag as a browser cache would.
	assets := []string{"/assets/hero.jpg", "/assets/site.css", "/assets/site.js"}
	get(wrapped.URL+"/", "")
	cached := map[string]string{}
	for _, path := range assets {
		cached[path] = get(wrapped.URL+path, "").Header.Get("Etag")
	}
	fmt.Printf("first visit cached %d resources\n", len(cached))

	fmt.Println("revisit, plain server:")
	get(plain.URL+"/", "")
	for _, path := range assets {
		fmt.Printf("  GET %-17s → %d\n", path, get(plain.URL+path, cached[path]).StatusCode)
	}
	fmt.Printf("  %d round trips\n", 1+len(assets))

	fmt.Println("revisit, wrapped server:")
	m, err := catalyst.DecodeMap(get(wrapped.URL+"/", "").Header.Get(catalyst.HeaderName))
	if err != nil {
		panic(err)
	}
	for _, path := range assets {
		current, covered := m[path]
		switch {
		case covered && current.String() == cached[path]:
			fmt.Printf("  %-21s → served from cache\n", path)
		case covered:
			fmt.Printf("  %-21s → changed on the server, refetch\n", path)
		default:
			fmt.Printf("  %-21s → not in the map, revalidate\n", path)
		}
	}
	fmt.Println("  1 round trip")
	// Output:
	// first visit cached 3 resources
	// revisit, plain server:
	//   GET /assets/hero.jpg  → 304
	//   GET /assets/site.css  → 304
	//   GET /assets/site.js   → 304
	//   4 round trips
	// revisit, wrapped server:
	//   /assets/hero.jpg      → served from cache
	//   /assets/site.css      → served from cache
	//   /assets/site.js       → served from cache
	//   1 round trip
}
