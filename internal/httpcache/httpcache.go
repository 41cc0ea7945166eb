// Package httpcache implements the private (browser) HTTP cache that the
// conventional-caching baseline uses: RFC 9111 storage rules, freshness
// computation (max-age, Expires, heuristic freshness), Age accounting, and
// the 304 header-update procedure.
//
// The paper's argument is that this machinery — correct as it is — costs a
// round trip whenever a response is stale, because staleness can only be
// resolved by a conditional request. The CacheCatalyst client (internal/sw)
// reuses this package's storage but bypasses freshness entirely, deciding
// reuse from proactively delivered ETags instead.
//
// Storage sits on internal/cachestore; this package keeps only the
// RFC 9111 policy layer (freshness math, Vary secondary keys, the
// 304 refresh procedure).
package httpcache

import (
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"cachecatalyst/internal/cachestore"
	"cachecatalyst/internal/etag"
	"cachecatalyst/internal/headers"
	"cachecatalyst/internal/vclock"
)

// Response is the minimal response representation shared by the real
// net/http path and the discrete-event simulator.
//
// Ownership rule: a body is never written after it enters a Response. The
// origin adapter, this cache, the Service Worker's CacheStorage and the
// browser's parsers all share one body slice instead of copying it, and a
// stage that needs different bytes builds a new slice (delta.Apply, the
// bundler) or reslices with a full slice expression (chaos truncation), so
// an append can never reach a shared array. Headers are not covered: they
// are mutable maps, and every store clones the header it keeps.
type Response struct {
	StatusCode int
	Header     http.Header
	// Body is read-only once set; see the ownership rule above.
	Body []byte
	// Truncated marks a body cut short by a mid-transfer failure
	// (connection reset, injected truncation). A truncated response must
	// never be cached or processed as content; Storable enforces the
	// former.
	Truncated bool
}

// ETag returns the response's parsed entity tag, if any.
func (r *Response) ETag() (etag.Tag, bool) {
	return etag.Parse(headers.Value(r.Header, "Etag"))
}

// State classifies a cache lookup result.
type State int

// Lookup states.
const (
	// Miss: nothing usable stored.
	Miss State = iota
	// Fresh: the stored response may be reused without contacting the
	// origin.
	Fresh
	// Stale: a stored response exists but must be validated with a
	// conditional request before reuse.
	Stale
)

func (s State) String() string {
	switch s {
	case Miss:
		return "miss"
	case Fresh:
		return "fresh"
	case Stale:
		return "stale"
	}
	return "invalid"
}

// Entry is a stored response plus the metadata freshness math needs.
// Entries are immutable once stored — Refresh replaces the entry rather
// than mutating it — so a returned Entry is safe to read concurrently.
type Entry struct {
	URL      string
	Response *Response
	// RequestTime and ResponseTime bracket the exchange that produced the
	// response (RFC 9111 §4.2.3).
	RequestTime  time.Time
	ResponseTime time.Time
	// CC is the parsed Cache-Control of the stored response.
	CC headers.CacheControl
	// varyValues captures the request header values named by the
	// response's Vary field at store time (lowercased name → value), for
	// the RFC 9111 §4.1 secondary-key match. This cache stores one
	// variant per URL, as the RFC permits. The map is never written once
	// stored, so Refresh hands it on to the refreshed entry.
	varyValues map[string]string
}

// ETag returns the entry's parsed entity tag, if any.
func (e *Entry) ETag() (etag.Tag, bool) { return e.Response.ETag() }

// Size returns the entry's accounting size in bytes.
func (e *Entry) Size() int64 {
	n := int64(len(e.Response.Body)) + int64(len(e.URL))
	for k, vs := range e.Response.Header {
		n += int64(len(k))
		for _, v := range vs {
			n += int64(len(v))
		}
	}
	return n
}

// heuristicFraction is the fraction of (Date − Last-Modified) used as the
// freshness lifetime when a response carries no explicit expiration: the
// 10% RFC 9111 §4.2.2 suggests.
const heuristicFraction = 0.1

// Cache is a private HTTP cache backed by internal/cachestore, and safe
// for concurrent use. It is unbounded: no program here sets a size bound.
// Read its counters through Stats().
type Cache struct {
	clock vclock.Clock
	store *cachestore.Store[*Entry]

	hits, misses, validations atomic.Int64
}

// CacheStats is a snapshot of a Cache's counters.
type CacheStats struct {
	// Hits counts fresh lookups served without contacting the origin;
	// Misses counts lookups with nothing usable stored.
	Hits, Misses int64
	// Validations counts stale lookups that required a conditional
	// request.
	Validations int64
}

// Stats returns a snapshot of the cache's counters.
func (c *Cache) Stats() CacheStats {
	return CacheStats{
		Hits:        c.hits.Load(),
		Misses:      c.misses.Load(),
		Validations: c.validations.Load(),
	}
}

// New returns an empty cache driven by the given clock.
func New(clock vclock.Clock) *Cache {
	return &Cache{clock: clock, store: cachestore.New(cachestore.Options[*Entry]{
		// One shard keeps this a faithful single-browser cache: the
		// store's locking still makes it race-free when experiments
		// drive one browser from several goroutines.
		Shards: 1,
		SizeOf: func(_ string, e *Entry) int64 { return e.Size() },
	})}
}

// Len returns the number of stored entries.
func (c *Cache) Len() int { return c.store.Len() }

// Bytes returns the total accounting size of stored entries.
func (c *Cache) Bytes() int64 { return c.store.Bytes() }

// Storable reports whether a response may be stored at all
// (RFC 9111 §3): a 200, 203 or 204 status, complete body, no no-store
// directive. A 206 is refused: this cache has no Range support, and a
// stored partial body must not answer a full GET (RFC 9111 §3.3–3.4).
func Storable(resp *Response) bool {
	if resp.Truncated {
		return false
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusNonAuthoritativeInfo &&
		resp.StatusCode != http.StatusNoContent {
		return false
	}
	cc := headers.ParseCacheControl(headers.Value(resp.Header, "Cache-Control"))
	return !cc.NoStore
}

// Put stores a response received for url. requestTime/responseTime bracket
// the network exchange. Responses that are not storable are ignored.
func (c *Cache) Put(url string, resp *Response, requestTime, responseTime time.Time) {
	c.PutWithRequest(url, nil, resp, requestTime, responseTime)
}

// PutWithRequest stores a response along with the request header values its
// Vary field names, enabling the secondary-key check on later lookups. The
// stored entry keeps a clone of resp's header and shares its body.
func (c *Cache) PutWithRequest(url string, reqHeader http.Header, resp *Response, requestTime, responseTime time.Time) {
	if !Storable(resp) {
		return
	}
	e := &Entry{
		URL:          url,
		Response:     &Response{StatusCode: resp.StatusCode, Header: resp.Header.Clone(), Body: resp.Body},
		RequestTime:  requestTime,
		ResponseTime: responseTime,
		CC:           headers.ParseCacheControl(headers.Value(resp.Header, "Cache-Control")),
		varyValues:   varyValues(headers.Value(resp.Header, "Vary"), reqHeader),
	}
	c.store.Put(url, e)
}

// varyValues snapshots the request header values named by a Vary field.
// The special member "*" is recorded as such.
func varyValues(vary string, reqHeader http.Header) map[string]string {
	vary = strings.TrimSpace(vary)
	if vary == "" {
		return nil
	}
	out := make(map[string]string)
	for _, name := range strings.Split(vary, ",") {
		name = strings.ToLower(strings.TrimSpace(name))
		if name == "" {
			continue
		}
		if name == "*" {
			out["*"] = ""
			continue
		}
		if reqHeader != nil {
			out[name] = reqHeader.Get(name)
		} else {
			out[name] = ""
		}
	}
	return out
}

// Get looks up url and classifies the result at the current clock time.
// A returned entry in state Stale carries the validator the caller should
// send in If-None-Match.
func (c *Cache) Get(url string) (*Entry, State) {
	return c.GetWithRequest(url, nil)
}

// GetWithRequest additionally applies the RFC 9111 §4.1 secondary-key
// check: a stored variant whose Vary'd request headers differ from this
// request's is unusable (Miss); a response stored with "Vary: *" can never
// be proven to match, so it always requires validation.
func (c *Cache) GetWithRequest(url string, reqHeader http.Header) (*Entry, State) {
	e, ok := c.store.Get(url)
	if !ok {
		c.misses.Add(1)
		return nil, Miss
	}
	if _, star := e.varyValues["*"]; star {
		c.validations.Add(1)
		return e, Stale
	}
	for name, stored := range e.varyValues {
		var got string
		if reqHeader != nil {
			got = reqHeader.Get(name)
		}
		if got != stored {
			c.misses.Add(1)
			return nil, Miss
		}
	}
	if c.isFresh(e) {
		c.hits.Add(1)
		return e, Fresh
	}
	c.validations.Add(1)
	return e, Stale
}

// Peek returns the entry without touching counters or eviction order.
func (c *Cache) Peek(url string) (*Entry, bool) {
	return c.store.Peek(url)
}

// Keys returns the URLs of all stored entries, in no particular order —
// chaos tests use it to audit the whole cache for poisoned entries.
func (c *Cache) Keys() []string { return c.store.Keys() }

// isFresh implements the RFC 9111 §4.2 freshness check.
func (c *Cache) isFresh(e *Entry) bool {
	if e.CC.NoCache {
		return false // always requires validation
	}
	lifetime := c.freshnessLifetime(e)
	if lifetime <= 0 {
		return false
	}
	return c.currentAge(e) < lifetime
}

// freshnessLifetime computes the freshness lifetime per RFC 9111 §4.2.1:
// max-age, then Expires − Date, then the heuristic.
func (c *Cache) freshnessLifetime(e *Entry) time.Duration {
	if e.CC.HasMaxAge {
		return e.CC.MaxAge
	}
	date := c.dateValue(e)
	if expires := headers.Value(e.Response.Header, "Expires"); expires != "" {
		if t, ok := headers.ParseHTTPDate(expires); ok {
			return t.Sub(date)
		}
		// Invalid Expires (e.g. "0") means already expired.
		return 0
	}
	if lm := headers.Value(e.Response.Header, "Last-Modified"); lm != "" {
		if t, ok := headers.ParseHTTPDate(lm); ok && date.After(t) {
			return time.Duration(float64(date.Sub(t)) * heuristicFraction)
		}
	}
	return 0
}

// currentAge computes the response's current age per RFC 9111 §4.2.3.
func (c *Cache) currentAge(e *Entry) time.Duration {
	var ageValue time.Duration
	if ageHdr := headers.Value(e.Response.Header, "Age"); ageHdr != "" {
		if d, err := time.ParseDuration(ageHdr + "s"); err == nil && d >= 0 {
			ageValue = d
		}
	}
	apparentAge := e.ResponseTime.Sub(c.dateValue(e))
	if apparentAge < 0 {
		apparentAge = 0
	}
	responseDelay := e.ResponseTime.Sub(e.RequestTime)
	correctedAge := ageValue + responseDelay
	correctedInitialAge := apparentAge
	if correctedAge > correctedInitialAge {
		correctedInitialAge = correctedAge
	}
	residentTime := c.clock.Now().Sub(e.ResponseTime)
	return correctedInitialAge + residentTime
}

// dateValue returns the response's Date, defaulting to the response time.
func (c *Cache) dateValue(e *Entry) time.Time {
	if d := headers.Value(e.Response.Header, "Date"); d != "" {
		if t, ok := headers.ParseHTTPDate(d); ok {
			return t
		}
	}
	return e.ResponseTime
}

// Refresh applies a 304 Not Modified to the stored entry per RFC 9111 §4.3.4:
// the stored headers are updated from the 304 and the entry's clock fields
// reset, renewing its freshness. The refreshed entry replaces the stored
// one — entries already handed out are never mutated — and shares its body.
func (c *Cache) Refresh(url string, notModified *Response, requestTime, responseTime time.Time) {
	e, ok := c.store.Peek(url)
	if !ok {
		return
	}
	resp := &Response{
		StatusCode: e.Response.StatusCode,
		Header:     headers.MergeNotModified(nil, e.Response.Header, notModified.Header),
		Body:       e.Response.Body,
	}
	c.store.Put(url, &Entry{
		URL:          e.URL,
		Response:     resp,
		RequestTime:  requestTime,
		ResponseTime: responseTime,
		CC:           headers.ParseCacheControl(headers.Value(resp.Header, "Cache-Control")),
		varyValues:   e.varyValues,
	})
}
