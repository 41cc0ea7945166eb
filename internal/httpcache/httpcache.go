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
// Storage is a plain map under one mutex: the cache is unbounded and never
// evicts, so it has no use for a byte budget or an eviction order. What it
// adds is the RFC 9111 policy layer (freshness math, Vary secondary keys,
// the 304 refresh procedure).
package httpcache

import (
	"net/http"
	"strings"
	"sync"
	"time"

	"cachecatalyst/internal/etag"
	"cachecatalyst/internal/headers"
	"cachecatalyst/internal/vclock"
)

// Response is the minimal response representation shared by the real
// net/http path and the discrete-event simulator.
//
// Ownership rule: neither a body nor a header is written after it enters a
// Response. The origin adapter, this cache, the Service Worker's
// CacheStorage and the browser's parsers all share one body slice and one
// header map instead of copying them, and both stores keep the very
// Response they are handed. A stage that needs different bytes builds a new
// slice (the bundler) or reslices with a full slice expression (chaos
// truncation), so an append can never reach a shared array; a stage that
// needs a different header edits a clone in a Response of its own (chaos's
// map corruption, the bundler's split) or builds a new map (the 304 merge).
type Response struct {
	StatusCode int
	// Header is read-only once set; see the ownership rule above.
	Header http.Header
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
	// varyValues captures the request header values named by the
	// response's Vary field at store time (lowercased name → value), for
	// the RFC 9111 §4.1 secondary-key match. This cache stores one
	// variant per URL, as the RFC permits. The map is never written once
	// stored, so Refresh hands it on to the refreshed entry.
	varyValues map[string]string
	// lifetime is the freshness lifetime (RFC 9111 §4.2.1), zero for a
	// no-cache response, and initialAge the corrected initial age
	// (§4.2.3), both fixed by the stored header and the exchange times.
	// A lookup adds only the resident time.
	lifetime, initialAge time.Duration
}

// ETag returns the entry's parsed entity tag, if any.
func (e *Entry) ETag() (etag.Tag, bool) { return e.Response.ETag() }

// fresh reports whether the entry is fresh at now (RFC 9111 §4.2): its
// current age, the corrected initial age plus the time it has been resident
// since the response arrived, is below its freshness lifetime.
func (e *Entry) fresh(now time.Time) bool {
	return e.lifetime > 0 && e.initialAge+now.Sub(e.ResponseTime) < e.lifetime
}

// heuristicFraction is the fraction of (Date − Last-Modified) used as the
// freshness lifetime when a response carries no explicit expiration: the
// 10% RFC 9111 §4.2.2 suggests.
const heuristicFraction = 0.1

// Cache is a private HTTP cache: a map under one mutex, safe for concurrent
// use. It is unbounded and never evicts: no program here sets a size bound.
// Read its counters through Stats().
type Cache struct {
	clock vclock.Clock

	mu      sync.Mutex
	entries map[string]*Entry

	hits, misses, validations int64
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
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{Hits: c.hits, Misses: c.misses, Validations: c.validations}
}

// New returns an empty cache driven by the given clock.
func New(clock vclock.Clock) *Cache {
	return &Cache{clock: clock, entries: make(map[string]*Entry)}
}

// Len returns the number of stored entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Storable reports whether a response may be stored at all
// (RFC 9111 §3): a 200, 203 or 204 status, complete body, no no-store
// directive. A 206 is refused: this cache has no Range support, and a
// stored partial body must not answer a full GET (RFC 9111 §3.3–3.4).
func Storable(resp *Response) bool {
	_, ok := storable(resp)
	return ok
}

// storable is Storable, also returning the Cache-Control it parsed.
func storable(resp *Response) (headers.CacheControl, bool) {
	if resp.Truncated {
		return headers.CacheControl{}, false
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusNonAuthoritativeInfo &&
		resp.StatusCode != http.StatusNoContent {
		return headers.CacheControl{}, false
	}
	cc := headers.ParseCacheControl(headers.Value(resp.Header, "Cache-Control"))
	return cc, !cc.NoStore
}

// Put stores a response received for url. requestTime/responseTime bracket
// the network exchange. Responses that are not storable are ignored.
func (c *Cache) Put(url string, resp *Response, requestTime, responseTime time.Time) {
	c.PutWithRequest(url, nil, resp, requestTime, responseTime)
}

// PutWithRequest stores a response along with the request header values its
// Vary field names, enabling the secondary-key check on later lookups. The
// stored entry keeps resp itself, header and body, which no one writes after
// they enter a Response (the ownership rule on Response).
func (c *Cache) PutWithRequest(url string, reqHeader http.Header, resp *Response, requestTime, responseTime time.Time) {
	cc, ok := storable(resp)
	if !ok {
		return
	}
	c.store(url, resp, cc, requestTime, responseTime, varyValues(headers.Value(resp.Header, "Vary"), reqHeader))
}

// store computes the entry's freshness once, from the header it keeps (cc is
// that header's Cache-Control), and replaces whatever url held.
func (c *Cache) store(url string, resp *Response, cc headers.CacheControl, requestTime, responseTime time.Time, vary map[string]string) {
	e := &Entry{
		URL:          url,
		Response:     resp,
		RequestTime:  requestTime,
		ResponseTime: responseTime,
		varyValues:   vary,
	}
	e.lifetime, e.initialAge = freshness(e, cc)
	c.mu.Lock()
	c.entries[url] = e
	c.mu.Unlock()
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
	now := c.clock.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[url]
	if !ok {
		c.misses++
		return nil, Miss
	}
	if _, star := e.varyValues["*"]; star {
		c.validations++
		return e, Stale
	}
	for name, stored := range e.varyValues {
		var got string
		if reqHeader != nil {
			got = reqHeader.Get(name)
		}
		if got != stored {
			c.misses++
			return nil, Miss
		}
	}
	if e.fresh(now) {
		c.hits++
		return e, Fresh
	}
	c.validations++
	return e, Stale
}

// Peek returns the entry without touching counters.
func (c *Cache) Peek(url string) (*Entry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[url]
	return e, ok
}

// Keys returns the URLs of all stored entries, in no particular order —
// chaos tests use it to audit the whole cache for poisoned entries.
func (c *Cache) Keys() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	keys := make([]string, 0, len(c.entries))
	for k := range c.entries {
		keys = append(keys, k)
	}
	return keys
}

// freshness computes an entry's freshness lifetime (RFC 9111 §4.2.1:
// max-age, then Expires − Date, then the heuristic; zero for no-cache,
// which always requires validation) and its corrected initial age
// (§4.2.3), from its stored header, that header's Cache-Control cc and
// its exchange times.
func freshness(e *Entry, cc headers.CacheControl) (lifetime, initialAge time.Duration) {
	h := e.Response.Header
	date := e.ResponseTime
	if d := headers.Value(h, "Date"); d != "" {
		if t, ok := headers.ParseHTTPDate(d); ok {
			date = t
		}
	}
	switch expires := headers.Value(h, "Expires"); {
	case cc.NoCache:
	case cc.HasMaxAge:
		lifetime = cc.MaxAge
	case expires != "":
		// An invalid Expires (e.g. "0") means already expired.
		if t, ok := headers.ParseHTTPDate(expires); ok {
			lifetime = t.Sub(date)
		}
	default:
		if lm := headers.Value(h, "Last-Modified"); lm != "" {
			if t, ok := headers.ParseHTTPDate(lm); ok && date.After(t) {
				lifetime = time.Duration(float64(date.Sub(t)) * heuristicFraction)
			}
		}
	}

	var ageValue time.Duration
	if ageHdr := headers.Value(h, "Age"); ageHdr != "" {
		if d, err := time.ParseDuration(ageHdr + "s"); err == nil && d >= 0 {
			ageValue = d
		}
	}
	apparentAge := e.ResponseTime.Sub(date)
	if apparentAge < 0 {
		apparentAge = 0
	}
	responseDelay := e.ResponseTime.Sub(e.RequestTime)
	initialAge = max(apparentAge, ageValue+responseDelay)
	return lifetime, initialAge
}

// Refresh applies a 304 Not Modified to the stored entry per RFC 9111 §4.3.4:
// the stored headers are updated from the 304, the entry's clock fields
// reset and its freshness re-derived from the merged header. The refreshed
// entry replaces the stored one — entries already handed out are never
// mutated — and shares its body.
func (c *Cache) Refresh(url string, notModified *Response, requestTime, responseTime time.Time) {
	e, ok := c.Peek(url)
	if !ok {
		return
	}
	resp := &Response{
		StatusCode: e.Response.StatusCode,
		Header:     headers.MergeNotModified(nil, e.Response.Header, notModified.Header),
		Body:       e.Response.Body,
	}
	cc := headers.ParseCacheControl(headers.Value(resp.Header, "Cache-Control"))
	c.store(e.URL, resp, cc, requestTime, responseTime, e.varyValues)
}
