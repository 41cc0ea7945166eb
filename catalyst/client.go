package catalyst

import (
	"context"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"net/url"
	"time"

	"cachecatalyst/internal/cachestore"
	"cachecatalyst/internal/core"
	"cachecatalyst/internal/etag"
	"cachecatalyst/internal/headers"
	"cachecatalyst/internal/telemetry"
)

// ClientOptions tunes the client's resilience behaviour. The zero value
// preserves the historical semantics: no timeout, no retries, errors
// surface immediately.
type ClientOptions struct {
	// Timeout bounds one Get end to end — connection, all retry
	// attempts, backoff sleeps and body reads together. When the budget
	// expires the call returns promptly with a timeout error (or a stale
	// cached copy, when StaleIfError allows one). Zero means no timeout.
	Timeout time.Duration
	// MaxRetries is how many times a transient failure (transport error
	// or 5xx response) is re-attempted. Zero means a single attempt.
	MaxRetries int
	// BackoffBase is the first retry delay; attempt n waits
	// min(2ⁿ·BackoffBase, BackoffMax) plus deterministic jitter derived
	// from the URL, so a fleet of clients retrying the same origin does
	// not thunder in lockstep yet tests replay exactly. Zero selects
	// 50 ms.
	BackoffBase time.Duration
	// BackoffMax caps the exponential growth. Zero selects 2 s.
	BackoffMax time.Duration
	// StaleIfError serves a cached copy — flagged Source "stale" — when
	// the network fails (transport error, timeout, or 5xx after
	// retries) and an entry for the URL exists. The RFC 5861 trade:
	// possibly-outdated content beats an error page.
	StaleIfError bool
	// MaxCacheBytes bounds the response cache's body bytes, evicting in
	// the cache core's greedy-dual size-frequency order. Zero means
	// unbounded.
	MaxCacheBytes int64
	// Telemetry, when set, indexes the client's counters, its two cache
	// stores, and a per-Get latency histogram in the given registry under
	// "client.*". Snapshot() and the registry read the same storage.
	Telemetry *telemetry.Registry
}

func (o ClientOptions) backoffBase() time.Duration {
	if o.BackoffBase > 0 {
		return o.BackoffBase
	}
	return 50 * time.Millisecond
}

func (o ClientOptions) backoffMax() time.Duration {
	if o.BackoffMax > 0 {
		return o.BackoffMax
	}
	return 2 * time.Second
}

// Client is a CacheCatalyst-aware HTTP client for Go programs — the
// non-browser counterpart of the Service Worker. Crawlers, monitors and
// scrapers that revisit pages benefit the same way browsers do: after a
// page fetch delivers the X-Etag-Config map, any cached subresource whose
// entity tag matches is returned locally with zero network round trips,
// and anything else is fetched (conditionally when possible) and
// re-cached.
//
// Both the per-origin map store and the response cache sit on
// internal/cachestore's sharded store, so a Client is safe for — and scales
// under — concurrent use.
type Client struct {
	// HTTP performs the actual requests; nil means http.DefaultClient.
	HTTP *http.Client

	opts ClientOptions

	maps  *cachestore.Store[ETagMap]         // per origin ("scheme://host")
	cache *cachestore.Store[*cachedResponse] // per absolute resource

	// Stats counters (read with Snapshot) — telemetry instruments, so a
	// registry passed in ClientOptions.Telemetry indexes this storage.
	localHits, networkFetches, revalidations  telemetry.Counter
	retries, timeouts, staleServes, netErrors telemetry.Counter
	getNS                                     *telemetry.Histogram // nil without telemetry
}

type cachedResponse struct {
	status int
	header http.Header
	body   []byte
}

// size is the entry's accounting size for the cache byte budget.
func (c *cachedResponse) size() int64 {
	n := int64(len(c.body))
	for k, vs := range c.header {
		n += int64(len(k))
		for _, v := range vs {
			n += int64(len(v))
		}
	}
	return n
}

// response builds a caller-owned copy of the entry.
func (c *cachedResponse) response(source string) *ClientResponse {
	return &ClientResponse{
		StatusCode: c.status,
		Header:     c.header.Clone(),
		Body:       append([]byte(nil), c.body...),
		Source:     source,
	}
}

// ClientResponse is a completed (possibly cache-served) exchange.
type ClientResponse struct {
	StatusCode int
	Header     http.Header
	Body       []byte
	// Source tells where the body came from: "network", "cache"
	// (zero round trips, proven current by the proactive map),
	// "revalidated" (a conditional request answered 304), or "stale"
	// (the network failed and StaleIfError served the cached copy).
	Source string
}

// ClientStats is a snapshot of client activity.
type ClientStats struct {
	LocalHits      int64 `json:"localHits"`
	NetworkFetches int64 `json:"networkFetches"`
	Revalidations  int64 `json:"revalidations"`
	// Retries counts re-attempts after transient failures.
	Retries int64 `json:"retries"`
	// Timeouts counts Gets that exhausted their time budget.
	Timeouts int64 `json:"timeouts"`
	// StaleServes counts responses served from cache under Source
	// "stale" because the network failed.
	StaleServes int64 `json:"staleServes"`
	// NetErrors counts Gets whose final attempt still failed (before
	// any stale fallback).
	NetErrors int64 `json:"netErrors"`
	// CacheEvictions counts cached responses evicted to respect
	// ClientOptions.MaxCacheBytes.
	CacheEvictions int64 `json:"cacheEvictions"`
}

// NewClient returns an empty-cache client over hc with zero-value options
// (no timeout, no retries).
func NewClient(hc *http.Client) *Client {
	return NewClientWithOptions(hc, ClientOptions{})
}

// NewClientWithOptions returns an empty-cache client over hc with the
// given resilience options.
func NewClientWithOptions(hc *http.Client, opts ClientOptions) *Client {
	c := &Client{
		HTTP: hc,
		opts: opts,
		maps: cachestore.New[ETagMap](cachestore.Options[ETagMap]{
			Shards:    4,
			Telemetry: opts.Telemetry,
			Name:      "client.maps",
		}),
		cache: cachestore.New[*cachedResponse](cachestore.Options[*cachedResponse]{
			MaxBytes:  opts.MaxCacheBytes,
			SizeOf:    func(_ string, r *cachedResponse) int64 { return r.size() },
			Telemetry: opts.Telemetry,
			Name:      "client.cache",
		}),
	}
	if reg := opts.Telemetry; reg != nil {
		reg.RegisterCounter("client.local_hits", &c.localHits)
		reg.RegisterCounter("client.network_fetches", &c.networkFetches)
		reg.RegisterCounter("client.revalidations", &c.revalidations)
		reg.RegisterCounter("client.retries", &c.retries)
		reg.RegisterCounter("client.timeouts", &c.timeouts)
		reg.RegisterCounter("client.stale_serves", &c.staleServes)
		reg.RegisterCounter("client.net_errors", &c.netErrors)
		c.getNS = reg.Histogram("client.get_ns")
	}
	return c
}

// Telemetry returns the registry the client was wired into, or nil.
func (c *Client) Telemetry() *telemetry.Registry { return c.opts.Telemetry }

// Snapshot returns current counters.
func (c *Client) Snapshot() ClientStats {
	return ClientStats{
		LocalHits:      c.localHits.Load(),
		NetworkFetches: c.networkFetches.Load(),
		Revalidations:  c.revalidations.Load(),
		Retries:        c.retries.Load(),
		Timeouts:       c.timeouts.Load(),
		StaleServes:    c.staleServes.Load(),
		NetErrors:      c.netErrors.Load(),
		CacheEvictions: c.cache.Counters().Evictions,
	}
}

func (c *Client) httpClient() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

// Get fetches rawURL with CacheCatalyst semantics. HTML responses refresh
// the origin's ETag map; subresources covered by a current map entry are
// served from the local cache without touching the network. Transient
// network failures are retried per ClientOptions, and — with StaleIfError —
// answered from cache with Source "stale" as a last resort.
func (c *Client) Get(rawURL string) (*ClientResponse, error) {
	return c.GetContext(context.Background(), rawURL)
}

// GetContext is Get with a caller context: cancellation bounds the whole
// exchange (ClientOptions.Timeout tightens it further, never loosens it),
// and a request trace carried by ctx receives the cache decision —
// "etag-match" for a map-proven local hit, "revalidate", "network",
// "stale-serve" — plus a "client.get" span.
func (c *Client) GetContext(ctx context.Context, rawURL string) (*ClientResponse, error) {
	if c.getNS != nil {
		start := time.Now()
		defer func() { c.getNS.Observe(time.Since(start).Nanoseconds()) }()
	}
	ctx, endSpan := telemetry.StartSpan(ctx, "client.get")
	defer endSpan()

	u, err := url.Parse(rawURL)
	if err != nil {
		return nil, fmt.Errorf("catalyst client: %w", err)
	}
	if u.Scheme == "" || u.Host == "" {
		return nil, fmt.Errorf("catalyst client: URL %q must be absolute", rawURL)
	}
	originKey := u.Scheme + "://" + u.Host
	cacheKey := originKey + resourceKey(u)

	// Serve locally when the proactive token proves the copy current.
	// Cached entries are shared between goroutines and never mutated;
	// response() hands the caller a private copy.
	var cachedTag string
	var revalidating *cachedResponse // pinned: survives mid-flight eviction
	m, _ := c.maps.Get(originKey)
	if cached, ok := c.cache.Get(cacheKey); ok {
		revalidating = cached
		cachedTag = cached.header.Get("Etag")
		if m != nil && cachedTag != "" {
			if tag, ok := etag.Parse(cachedTag); ok &&
				core.Decide(m, resourceKey(u), tag) == core.ServeFromCache {
				c.localHits.Add(1)
				telemetry.Event(ctx, "etag-match", rawURL)
				return cached.response("cache"), nil
			}
		}
	}

	if c.opts.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.opts.Timeout)
		defer cancel()
	}

	if cachedTag != "" {
		telemetry.Event(ctx, "revalidate", rawURL)
	}
	httpResp, body, err := c.fetchWithRetries(ctx, rawURL, cachedTag)
	if err != nil {
		c.netErrors.Add(1)
		if ctx.Err() != nil {
			c.timeouts.Add(1)
		}
		if c.opts.StaleIfError {
			if cached, ok := c.cache.Get(cacheKey); ok {
				c.staleServes.Add(1)
				telemetry.Event(ctx, "stale-serve", rawURL)
				return cached.response("stale"), nil
			}
		}
		return nil, fmt.Errorf("catalyst client: %w", err)
	}

	c.networkFetches.Add(1)
	telemetry.Event(ctx, "network", rawURL)

	// HTML responses (and their 304s) carry a fresh map for the origin.
	if cfg := httpResp.Header.Get(HeaderName); cfg != "" {
		if newMap, err := core.DecodeMap(cfg); err == nil {
			c.maps.Put(originKey, newMap)
		}
	}

	if httpResp.StatusCode == http.StatusNotModified {
		// Prefer the live entry, but fall back to the one we validated
		// against: a bounded cache may have evicted it while the request
		// was in flight, and entries are immutable so the pinned copy is
		// still good.
		cached, ok := c.cache.Get(cacheKey)
		if !ok {
			cached, ok = revalidating, revalidating != nil
		}
		if ok {
			c.revalidations.Add(1)
			// Merge refreshed headers per RFC 9111 §4.3.4 — into a fresh
			// entry, never mutating the shared one in place.
			merged := headers.MergeNotModified(nil, cached.header, httpResp.Header)
			fresh := &cachedResponse{status: cached.status, header: merged, body: cached.body}
			c.cache.Put(cacheKey, fresh)
			return fresh.response("revalidated"), nil
		}
		// No pinned entry either (Clear raced the whole exchange):
		// surface the 304.
	}

	out := &ClientResponse{
		StatusCode: httpResp.StatusCode,
		Header:     httpResp.Header.Clone(),
		Body:       body,
		Source:     "network",
	}
	if httpResp.StatusCode == http.StatusOK && !headers.ParseCacheControl(httpResp.Header.Get("Cache-Control")).NoStore {
		c.cache.Put(cacheKey, &cachedResponse{
			status: httpResp.StatusCode,
			header: httpResp.Header.Clone(),
			body:   append([]byte(nil), body...),
		})
	}
	return out, nil
}

// fetchWithRetries performs the network exchange with capped exponential
// backoff. It retries transport errors and 5xx responses; anything else —
// including 4xx — is a definitive answer. The returned body is fully read
// and the response closed.
func (c *Client) fetchWithRetries(ctx context.Context, rawURL, cachedTag string) (*http.Response, []byte, error) {
	var lastErr error
	for attempt := 0; ; attempt++ {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, rawURL, nil)
		if err != nil {
			return nil, nil, err
		}
		if cachedTag != "" {
			req.Header.Set("If-None-Match", cachedTag)
		}
		httpResp, err := c.httpClient().Do(req)
		if err == nil {
			var body []byte
			body, err = io.ReadAll(httpResp.Body)
			httpResp.Body.Close()
			if err == nil {
				if httpResp.StatusCode < 500 {
					return httpResp, body, nil
				}
				err = fmt.Errorf("origin answered %d", httpResp.StatusCode)
			}
		}
		lastErr = err
		if attempt >= c.opts.MaxRetries || ctx.Err() != nil {
			return nil, nil, lastErr
		}
		c.retries.Add(1)
		if err := sleepCtx(ctx, c.backoff(rawURL, attempt)); err != nil {
			return nil, nil, lastErr
		}
	}
}

// backoff computes the delay before re-attempt number attempt:
// min(2ᵃᵗᵗᵉᵐᵖᵗ·base, max), plus up to 50 % deterministic jitter keyed on
// (URL, attempt) — spread between clients, reproducible within one.
func (c *Client) backoff(rawURL string, attempt int) time.Duration {
	d := c.opts.backoffBase() << uint(attempt)
	if maxd := c.opts.backoffMax(); d > maxd || d <= 0 {
		d = maxd
	}
	h := fnv.New64a()
	io.WriteString(h, rawURL)
	h.Write([]byte{byte(attempt)})
	jitter := time.Duration(h.Sum64() % uint64(d/2+1))
	return d/2 + jitter
}

// sleepCtx waits for d or the context's cancellation, whichever first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// Clear drops all cached responses and maps.
func (c *Client) Clear() {
	c.maps.Clear()
	c.cache.Clear()
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
