package catalyst

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sync"

	"cachecatalyst/internal/headers"
	"cachecatalyst/internal/httpcache"
	"cachecatalyst/internal/sw"
	"cachecatalyst/internal/telemetry"
)

// Client is the Service Worker for Go programs (crawlers, monitors) that
// revisit pages: a shell over one sw.Worker per origin ("scheme://host"),
// which alone decides what is served with zero round trips, what is stored,
// and what a map that fails to decode means (PROTOCOL.md §4). Anything not
// served locally is fetched, conditionally when a copy is held. A Client is
// safe for concurrent use; GetContext's context bounds a Get.
type Client struct {
	// HTTP performs the actual requests; nil means http.DefaultClient.
	HTTP *http.Client

	workers sync.Map // origin → *sw.Worker
}

// ClientResponse is a completed exchange, owned by the caller.
type ClientResponse struct {
	StatusCode int
	Header     http.Header
	Body       []byte
	// Source is "network", "cache" (zero round trips, proven current by
	// the map) or "revalidated" (a conditional request answered 304).
	Source string
}

// NewClient returns an empty-cache client over hc.
func NewClient(hc *http.Client) *Client {
	return &Client{HTTP: hc}
}

// Get fetches rawURL with CacheCatalyst semantics.
func (c *Client) Get(rawURL string) (*ClientResponse, error) {
	return c.GetContext(context.Background(), rawURL)
}

// GetContext is Get with a caller context: cancellation bounds the whole
// exchange, and a request trace carried by ctx receives the worker's
// decision ("sw-hit" or "network", plus "revalidate" for a conditional
// request) inside a "client.get" span.
func (c *Client) GetContext(ctx context.Context, rawURL string) (*ClientResponse, error) {
	ctx, endSpan := telemetry.StartSpan(ctx, "client.get")
	defer endSpan()

	u, err := url.Parse(rawURL)
	if err != nil {
		return nil, fmt.Errorf("catalyst client: %w", err)
	}
	if u.Scheme == "" || u.Host == "" {
		return nil, fmt.Errorf("catalyst client: URL %q must be absolute", rawURL)
	}
	w := c.worker(u.Scheme + "://" + u.Host)
	key := resourceKey(u)
	if cached, ok := w.HandleFetchContext(ctx, key); ok {
		return clientResponse(cached, "cache"), nil
	}

	req, err := http.NewRequestWithContext(ctx, http.MethodGet, rawURL, nil)
	if err != nil {
		return nil, fmt.Errorf("catalyst client: %w", err)
	}
	held, _ := w.Cache().Match(key)
	if held != nil && held.Header.Get("Etag") != "" {
		req.Header.Set("If-None-Match", held.Header.Get("Etag"))
		telemetry.Event(ctx, "revalidate", rawURL)
	} else {
		held = nil // nothing to validate: a 304 is answered as it stands
	}
	hc := c.HTTP
	if hc == nil {
		hc = http.DefaultClient
	}
	httpResp, err := hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("catalyst client: %w", err)
	}
	body, err := io.ReadAll(httpResp.Body)
	httpResp.Body.Close()
	if err != nil {
		return nil, fmt.Errorf("catalyst client: %w", err)
	}

	resp := &httpcache.Response{StatusCode: httpResp.StatusCode, Header: httpResp.Header, Body: body}
	w.OnNavigationResponse(resp)
	source := "network"
	if resp.StatusCode == http.StatusNotModified && held != nil {
		// RFC 9111 §4.3.4: the 304 refreshes the held copy's header.
		resp = &httpcache.Response{StatusCode: held.StatusCode, Header: headers.MergeNotModified(nil, held.Header, resp.Header), Body: held.Body}
		source = "revalidated"
	}
	w.OnSubresourceResponse(key, resp)
	return clientResponse(resp, source), nil
}

// worker returns origin's worker, installing one on first use.
func (c *Client) worker(origin string) *sw.Worker {
	if w, ok := c.workers.Load(origin); ok {
		return w.(*sw.Worker)
	}
	w, _ := c.workers.LoadOrStore(origin, sw.NewWorker())
	return w.(*sw.Worker)
}

// clientResponse copies r out for the caller: a stored response is shared
// with the worker's cache and every goroutine reading it.
func clientResponse(r *httpcache.Response, source string) *ClientResponse {
	return &ClientResponse{StatusCode: r.StatusCode, Header: r.Header.Clone(), Body: append([]byte(nil), r.Body...), Source: source}
}

// resourceKey is the origin-relative key used both in the cache and in the
// server's map (path plus query).
func resourceKey(u *url.URL) string {
	p := u.EscapedPath()
	if p == "" {
		p = "/"
	}
	if u.RawQuery != "" {
		p += "?" + u.RawQuery
	}
	return p
}
