package catalyst

import (
	"io"
	"net/http"
	"net/http/httptest"
	"net/http/httputil"
	"net/url"
	"strings"
	"testing"
	"testing/fstest"
	"time"
)

// innerSite is a plain file-serving handler with no CacheCatalyst
// awareness, standing in for an existing application.
func innerSite() http.Handler {
	mux := http.NewServeMux()
	serve := func(path, contentType, body string) {
		mux.HandleFunc(path, func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", contentType)
			_, _ = io.WriteString(w, body)
		})
	}
	serve("/{$}", "text/html; charset=utf-8",
		`<html><head><link rel="stylesheet" href="/style.css"><script src="/app.js"></script></head><body><img src="/logo.png"></body></html>`)
	serve("/style.css", "text/css; charset=utf-8", `body { background: url(/bg.png); }`)
	serve("/app.js", "text/javascript; charset=utf-8", `console.log("app")`)
	serve("/logo.png", "image/png", "PNG-LOGO")
	serve("/bg.png", "image/png", "PNG-BG")
	mux.HandleFunc("/api/data", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_, _ = io.WriteString(w, `{"ok":true}`)
	})
	return mux
}

func TestMiddlewareDecoratesHTML(t *testing.T) {
	h := Middleware(innerSite(), MiddlewareOptions{})
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/", nil))

	if rec.Code != 200 {
		t.Fatalf("status = %d", rec.Code)
	}
	m, err := DecodeMap(rec.Header().Get(HeaderName))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{"/style.css", "/app.js", "/logo.png", "/bg.png"} {
		if _, ok := m[p]; !ok {
			t.Errorf("map missing %q: %v", p, m)
		}
	}
	if !strings.Contains(rec.Body.String(), RegistrationSnippet) {
		t.Error("snippet not injected")
	}
	if rec.Header().Get("Etag") == "" {
		t.Error("rewritten HTML has no validator")
	}
}

func TestMiddlewareConditionalGet(t *testing.T) {
	h := Middleware(innerSite(), MiddlewareOptions{})
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/", nil))
	tag := rec.Header().Get("Etag")

	req := httptest.NewRequest("GET", "/", nil)
	req.Header.Set("If-None-Match", tag)
	rec2 := httptest.NewRecorder()
	h.ServeHTTP(rec2, req)
	if rec2.Code != http.StatusNotModified {
		t.Fatalf("status = %d", rec2.Code)
	}
	if rec2.Header().Get(HeaderName) == "" {
		t.Fatal("304 must still carry the map header")
	}
	if rec2.Body.Len() != 0 {
		t.Fatal("304 carried a body")
	}
}

func TestMiddlewarePassesThroughNonHTML(t *testing.T) {
	h := Middleware(innerSite(), MiddlewareOptions{})
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/api/data", nil))
	if rec.Code != 200 || rec.Body.String() != `{"ok":true}` {
		t.Fatalf("API response mangled: %d %q", rec.Code, rec.Body.String())
	}
	if rec.Header().Get(HeaderName) != "" {
		t.Error("map header on JSON response")
	}
}

func TestMiddlewareServesWorkerScript(t *testing.T) {
	h := Middleware(innerSite(), MiddlewareOptions{})
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", WorkerPath, nil))
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), HeaderName) {
		t.Fatalf("worker script: %d", rec.Code)
	}
}

func TestMiddlewareMapTagsMatchProbedResources(t *testing.T) {
	h := Middleware(innerSite(), MiddlewareOptions{})
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/", nil))
	m, _ := DecodeMap(rec.Header().Get(HeaderName))

	// Since the inner handler emits no ETags, the middleware derives them
	// from content; the derived tag must be stable.
	rec2 := httptest.NewRecorder()
	h.ServeHTTP(rec2, httptest.NewRequest("GET", "/", nil))
	m2, _ := DecodeMap(rec2.Header().Get(HeaderName))
	for p, tag := range m {
		if m2[p] != tag {
			t.Errorf("tag for %q unstable: %v vs %v", p, tag, m2[p])
		}
	}
	if m["/style.css"] != TagForBytes([]byte(`body { background: url(/bg.png); }`)) {
		t.Error("derived tag does not match content hash")
	}
}

func TestMiddlewareProbeTTL(t *testing.T) {
	hits := 0
	inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/a.js" {
			hits++
			w.Header().Set("Content-Type", "text/javascript")
			_, _ = io.WriteString(w, "x()")
			return
		}
		w.Header().Set("Content-Type", "text/html")
		_, _ = io.WriteString(w, `<script src="/a.js"></script>`)
	})
	h := tuned(inner, MiddlewareOptions{}, withStoppedClock())
	for i := 0; i < 5; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/", nil))
	}
	if hits != 1 {
		t.Fatalf("probe hits = %d, want 1 (TTL cache not used)", hits)
	}
}

func TestMiddlewareRespectsInnerETags(t *testing.T) {
	inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v.js" {
			w.Header().Set("Content-Type", "text/javascript")
			w.Header().Set("Etag", `"inner-tag"`)
			_, _ = io.WriteString(w, "v()")
			return
		}
		w.Header().Set("Content-Type", "text/html")
		_, _ = io.WriteString(w, `<script src="/v.js"></script>`)
	})
	h := Middleware(inner, MiddlewareOptions{})
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/", nil))
	m, _ := DecodeMap(rec.Header().Get(HeaderName))
	if m["/v.js"].Opaque != "inner-tag" {
		t.Fatalf("inner ETag not used: %v", m["/v.js"])
	}
}

func TestMiddlewareOverRealSockets(t *testing.T) {
	// Full loopback round trip through net/http.
	ts := httptest.NewServer(Middleware(innerSite(), MiddlewareOptions{}))
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	m, err := DecodeMap(resp.Header.Get(HeaderName))
	if err != nil || len(m) != 4 {
		t.Fatalf("map over real sockets: %v, %v", m, err)
	}
	if !strings.Contains(string(body), "serviceWorker") {
		t.Fatal("snippet missing over real sockets")
	}

	// Conditional revisit earns a 304 with a fresh map.
	req, _ := http.NewRequest("GET", ts.URL+"/", nil)
	req.Header.Set("If-None-Match", resp.Header.Get("Etag"))
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotModified {
		t.Fatalf("revisit status = %d", resp2.StatusCode)
	}
	if resp2.Header.Get(HeaderName) == "" {
		t.Fatal("304 lost the map header")
	}
}

func TestNewServerServesWithCatalyst(t *testing.T) {
	fsys := fstest.MapFS{
		"index.html": {Data: []byte(`<img src="/pic.png">`)},
		"pic.png":    {Data: []byte("PNG")},
	}
	srv, err := NewServer(fsys, ServerOptions{Policy: DefaultPolicy})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	m, err := DecodeMap(resp.Header.Get(HeaderName))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := m["/pic.png"]; !ok {
		t.Fatalf("map = %v", m)
	}
}

func TestDefaultPolicy(t *testing.T) {
	if !DefaultPolicy("/index.html").NoCache {
		t.Error("HTML should be no-cache")
	}
	if p := DefaultPolicy("/app.js"); !p.HasMaxAge || p.MaxAge != 24*time.Hour {
		t.Errorf("js policy = %+v", p)
	}
	if p := DefaultPolicy("/pic.png"); !p.HasMaxAge || p.MaxAge != time.Hour {
		t.Errorf("png policy = %+v", p)
	}
	if !DefaultPolicy("/").NoCache {
		t.Error("root should be no-cache")
	}
}

func TestMiddlewarePassesThroughNonGET(t *testing.T) {
	called := ""
	inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		called = r.Method
		w.WriteHeader(http.StatusCreated)
	})
	h := Middleware(inner, MiddlewareOptions{})
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/submit", strings.NewReader("x=1")))
	if called != "POST" || rec.Code != http.StatusCreated {
		t.Fatalf("POST mishandled: called=%q code=%d", called, rec.Code)
	}
	if rec.Header().Get(HeaderName) != "" {
		t.Fatal("map header on POST response")
	}
}

func TestMiddlewareHEADOnHTML(t *testing.T) {
	h := Middleware(innerSite(), MiddlewareOptions{})
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("HEAD", "/", nil))
	if rec.Code != 200 {
		t.Fatalf("status = %d", rec.Code)
	}
	if rec.Body.Len() != 0 {
		t.Fatal("HEAD returned a body")
	}
	if rec.Header().Get(HeaderName) == "" {
		t.Fatal("HEAD response lost the map header")
	}
	if rec.Header().Get("Etag") == "" {
		t.Fatal("HEAD response lost the validator")
	}
}

// TestMiddlewareHEADThroughProxy is the HEAD of a page behind a reverse
// proxy, whose upstream answers a HEAD with a page's headers and no body. That
// empty body must never be rendered or stored: the HEAD gets the validator,
// length and map the GET gets, and the GET after it still finds the page's
// render in the render cache. Both for a page the middleware holds (HEAD +
// If-None-Match → 304 → the held render) and for one it cannot hold or has
// not seen (the page is fetched with a GET).
func TestMiddlewareHEADThroughProxy(t *testing.T) {
	const page = `<html><head><link rel="stylesheet" href="/a.css"></head><body></body></html>`
	for _, c := range []struct {
		name      string
		tag       string // the origin's page Etag; "" for none
		headFirst bool
	}{
		{"held", `"page-v1"`, false},
		{"untagged", "", false},
		{"cold", `"page-v1"`, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if c.tag != "" {
					w.Header().Set("Etag", c.tag)
				}
				if r.URL.Path == "/" {
					w.Header().Set("Content-Type", "text/html; charset=utf-8")
					http.ServeContent(w, r, "", time.Time{}, strings.NewReader(page))
					return
				}
				w.Header().Set("Content-Type", "text/css")
				_, _ = io.WriteString(w, "a{}")
			}))
			defer origin.Close()
			u, err := url.Parse(origin.URL)
			if err != nil {
				t.Fatal(err)
			}
			h := tuned(httputil.NewSingleHostReverseProxy(u), MiddlewareOptions{}, withStoppedClock())
			m := h.(*middleware)
			serve := func(method string) *httptest.ResponseRecorder {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(method, "/", nil))
				if rec.Code != http.StatusOK {
					t.Fatalf("%s / = %d", method, rec.Code)
				}
				return rec
			}
			var get, head *httptest.ResponseRecorder
			if c.headFirst {
				head, get = serve("HEAD"), serve("GET")
			} else {
				get, head = serve("GET"), serve("HEAD")
			}
			if head.Body.Len() != 0 {
				t.Fatalf("HEAD carried a %d-byte body", head.Body.Len())
			}
			for _, k := range []string{"Etag", "Content-Length", HeaderName} {
				if g, w := head.Header().Get(k), get.Header().Get(k); g != w || w == "" {
					t.Errorf("HEAD %s = %q, GET %s = %q", k, g, k, w)
				}
			}
			if again := serve("GET"); again.Header().Get("Etag") != get.Header().Get("Etag") || again.Body.String() != get.Body.String() {
				t.Fatalf("the GET after the HEAD served another page: Etag %q, was %q", again.Header().Get("Etag"), get.Header().Get("Etag"))
			}
			if loads := m.def.renders.Counters().Loads; loads != 1 {
				t.Errorf("%d renders for one page: the HEAD's empty body was rendered", loads)
			}
			if got, want := m.metrics.PageRevalidated.Load() > 0, c.tag != ""; got != want {
				t.Errorf("page revalidated: %v, want %v for an origin Etag of %q", got, want, c.tag)
			}
		})
	}
}

func TestMiddlewarePageWithQueryString(t *testing.T) {
	inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/search":
			w.Header().Set("Content-Type", "text/html")
			_, _ = io.WriteString(w, `<img src="result.png">`)
		case "/result.png":
			w.Header().Set("Content-Type", "image/png")
			_, _ = io.WriteString(w, "PNG")
		default:
			http.NotFound(w, r)
		}
	})
	h := Middleware(inner, MiddlewareOptions{})
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/search?q=cats", nil))
	m, err := DecodeMap(rec.Header().Get(HeaderName))
	if err != nil {
		t.Fatal(err)
	}
	// The relative image resolves against /search (not the query).
	if _, ok := m["/result.png"]; !ok {
		t.Fatalf("map = %v", m)
	}
}

func TestMiddlewareErrorPagePassesThrough(t *testing.T) {
	inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/html")
		w.WriteHeader(http.StatusInternalServerError)
		_, _ = io.WriteString(w, "<html>boom</html>")
	})
	h := Middleware(inner, MiddlewareOptions{})
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d", rec.Code)
	}
	if rec.Header().Get(HeaderName) != "" {
		t.Fatal("map header on a 500 page")
	}
	if !strings.Contains(rec.Body.String(), "boom") {
		t.Fatal("error body lost")
	}
}
