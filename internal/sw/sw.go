// Package sw emulates the browser Service Worker machinery the paper's
// client side builds on (§3, Figure 2): a domain-scoped request interceptor
// with its own cache storage.
//
// The Worker type is a faithful Go port of the JavaScript Service Worker in
// internal/core (ServiceWorkerScript): on each navigation it captures the
// X-Etag-Config map; on each subresource fetch it serves straight from its
// cache when the cached entity tag equals the proactively delivered one, and
// otherwise forwards to the network and re-caches under the new tag.
package sw

import (
	"context"
	"net/http"
	"sync"
	"sync/atomic"

	"cachecatalyst/internal/core"
	"cachecatalyst/internal/etag"
	"cachecatalyst/internal/headers"
	"cachecatalyst/internal/httpcache"
	"cachecatalyst/internal/telemetry"
)

// CacheStorage emulates the Cache interface available to Service Workers:
// a URL-keyed response store with none of the RFC 9111 freshness machinery
// (Service Worker caches never expire entries on their own). It is
// unbounded: no program here sets a storage quota.
//
// Storage is a map under one mutex, so a CacheStorage is safe for
// concurrent workers (real browsers share one Cache across worker contexts
// the same way).
type CacheStorage struct {
	mu        sync.Mutex
	responses map[string]*httpcache.Response
}

// NewCacheStorage returns an empty store.
func NewCacheStorage() *CacheStorage {
	return &CacheStorage{responses: make(map[string]*httpcache.Response)}
}

// Match returns the stored response for path, if any.
func (c *CacheStorage) Match(path string) (*httpcache.Response, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	r, ok := c.responses[path]
	return r, ok
}

// Put stores resp under path, replacing any previous entry. The store keeps
// resp itself, header and body, which no one writes after they enter a
// Response (httpcache.Response's ownership rule).
// Responses marked no-store are not cached, matching the paper's rule that
// the Service Worker stores "all resources received from the server ...
// provided they do not have a no-store header". Truncated bodies are never
// stored: caching a prefix of a resource would poison every later visit
// the proactive map proves "current".
func (c *CacheStorage) Put(path string, resp *httpcache.Response) {
	if resp.StatusCode != http.StatusOK || resp.Truncated {
		return
	}
	cc := headers.ParseCacheControl(headers.Value(resp.Header, "Cache-Control"))
	if cc.NoStore {
		return
	}
	c.mu.Lock()
	c.responses[path] = resp
	c.mu.Unlock()
}

// Len returns the number of stored responses.
func (c *CacheStorage) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.responses)
}

// Keys returns the stored paths, in no particular order — chaos tests use
// it to audit the whole store for poisoned entries.
func (c *CacheStorage) Keys() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	keys := make([]string, 0, len(c.responses))
	for k := range c.responses {
		keys = append(keys, k)
	}
	return keys
}

// AccessRecorder observes every subresource access a Worker serves or
// fetches, with the object's byte size. internal/cachesim's Recorder
// implements it: wiring one into a harness run exports the emulated
// browsers' request stream as a webcachesim-format trace, so cache
// policies can be replayed offline against the workload the system
// actually generated. Implementations must be safe for concurrent use.
type AccessRecorder interface {
	Record(key string, size int64)
}

// SiteWorker is an existing, site-provided Service Worker the CacheCatalyst
// worker must coexist with (§6, third issue). If it claims a request the
// catalyst logic steps aside.
type SiteWorker interface {
	// HandleFetch may answer a request itself (e.g. an offline page).
	// ok=false passes the request through.
	HandleFetch(path string) (resp *httpcache.Response, ok bool)
}

// Stats counts Worker activity for experiments.
type Stats struct {
	// LocalHits are requests answered from cache with zero round trips.
	LocalHits int64
	// NetworkFetches are requests forwarded to the origin.
	NetworkFetches int64
	// MapUpdates counts navigations that delivered an ETag map.
	MapUpdates int64
	// MapDecodeFailures counts navigations whose X-Etag-Config could not
	// be decoded (corrupted or truncated in transit). The worker degrades
	// to its previous map — the same behaviour as an absent header — so a
	// mangled header can never fail a load.
	MapDecodeFailures int64
	// DelegatedFetches were answered by a coexisting site worker.
	DelegatedFetches int64
}

// Worker is the CacheCatalyst Service Worker for one origin; Stats()
// snapshots its counters. A Worker is safe for concurrent use, and
// catalyst.Client shares one per origin across goroutines: its mutable
// state is the atomically published map, its atomic counters and its
// CacheStorage, which locks for itself. It takes no lock of its own.
type Worker struct {
	cache    *CacheStorage
	etags    atomic.Pointer[core.ETagMap] // the last delivered map, never nil
	site     SiteWorker
	recorder AccessRecorder

	localHits, networkFetches  atomic.Int64
	mapUpdates, mapDecodeFails atomic.Int64
	delegatedFetches           atomic.Int64
}

// NewWorker returns a freshly installed worker with an empty cache and no
// ETag map (the state right after first registration).
func NewWorker() *Worker {
	w := &Worker{cache: NewCacheStorage()}
	w.etags.Store(&core.ETagMap{})
	return w
}

// WithSiteWorker attaches a coexisting site-provided worker. The catalyst
// worker consults it first for subresource fetches, mirroring the
// composition the paper's future work calls for.
func (w *Worker) WithSiteWorker(s SiteWorker) *Worker {
	w.site = s
	return w
}

// WithRecorder attaches an access recorder: every subresource the worker
// answers from cache or receives from the network is reported with its
// body size. Returns w for chaining.
func (w *Worker) WithRecorder(r AccessRecorder) *Worker {
	w.recorder = r
	return w
}

// Cache exposes the worker's cache storage (tests and the browser emulator
// need to inspect and warm it).
func (w *Worker) Cache() *CacheStorage { return w.cache }

// Stats returns a snapshot of the worker's counters.
func (w *Worker) Stats() Stats {
	return Stats{
		LocalHits:         w.localHits.Load(),
		NetworkFetches:    w.networkFetches.Load(),
		MapUpdates:        w.mapUpdates.Load(),
		MapDecodeFailures: w.mapDecodeFails.Load(),
		DelegatedFetches:  w.delegatedFetches.Load(),
	}
}

// ETagMap returns the most recently delivered map.
func (w *Worker) ETagMap() core.ETagMap { return *w.etags.Load() }

// OnNavigationResponse processes the response to a navigation (base HTML)
// request: it captures the proactively delivered ETag map. A navigation
// without the header leaves the previous map in place — the worker degrades
// to plain pass-through behaviour on servers that don't speak CacheCatalyst.
// A header that fails to decode (corrupted or truncated in transit) is
// treated exactly like an absent one, and counted, so a mangled map can
// never fail the load.
func (w *Worker) OnNavigationResponse(resp *httpcache.Response) {
	cfg := headers.Value(resp.Header, core.HeaderName)
	if cfg == "" {
		return
	}
	m, err := core.DecodeMap(cfg)
	if err != nil {
		w.mapDecodeFails.Add(1)
		return
	}
	w.etags.Store(&m)
	w.mapUpdates.Add(1)
}

// HandleFetch answers a subresource request locally when possible.
// ok=true delivers the response with zero network round trips; ok=false
// means the caller must fetch from the network (and should then call
// OnSubresourceResponse with the result).
func (w *Worker) HandleFetch(path string) (*httpcache.Response, bool) {
	return w.HandleFetchContext(context.Background(), path)
}

// HandleFetchContext is HandleFetch recording the fetch decision on the
// request trace carried by ctx: "sw-hit" for a request the worker (or a
// coexisting site worker) answered without the network, "network" for one
// it forwards.
func (w *Worker) HandleFetchContext(ctx context.Context, path string) (*httpcache.Response, bool) {
	if w.site != nil {
		if resp, handled := w.site.HandleFetch(path); handled {
			w.delegatedFetches.Add(1)
			telemetry.Event(ctx, "sw-hit", path+" (site worker)")
			return resp, true
		}
	}
	cached, ok := w.cache.Match(path)
	if ok {
		var cachedTag etag.Tag
		if t, has := cached.ETag(); has {
			cachedTag = t
		}
		if core.Decide(w.ETagMap(), path, cachedTag) == core.ServeFromCache {
			w.localHits.Add(1)
			telemetry.Event(ctx, "sw-hit", path)
			if w.recorder != nil {
				w.recorder.Record(path, int64(len(cached.Body)))
			}
			return cached, true
		}
	}
	w.networkFetches.Add(1)
	telemetry.Event(ctx, "network", path)
	return nil, false
}

// OnSubresourceResponse stores a network-fetched subresource under its new
// entity tag so subsequent visits can serve it locally.
func (w *Worker) OnSubresourceResponse(path string, resp *httpcache.Response) {
	if w.recorder != nil {
		w.recorder.Record(path, int64(len(resp.Body)))
	}
	w.cache.Put(path, resp)
}

// Registry tracks installed workers per origin, emulating the
// domain-specificity of real Service Workers: a worker only ever intercepts
// requests for the origin that registered it.
type Registry struct {
	workers  map[string]*Worker
	recorder AccessRecorder
}

// NewRegistry returns an empty registry (a browser profile with no
// installed workers).
func NewRegistry() *Registry {
	return &Registry{workers: make(map[string]*Worker)}
}

// WithRecorder makes Register attach rec to every newly installed worker.
// Already-installed workers are unaffected.
func (r *Registry) WithRecorder(rec AccessRecorder) *Registry {
	r.recorder = rec
	return r
}

// Lookup returns the worker installed for origin, if any.
func (r *Registry) Lookup(origin string) (*Worker, bool) {
	w, ok := r.workers[origin]
	return w, ok
}

// Register installs a worker for origin if none exists and returns the
// origin's worker. Registration is idempotent, like repeated
// serviceWorker.register calls in a real browser.
func (r *Registry) Register(origin string) *Worker {
	if w, ok := r.workers[origin]; ok {
		return w
	}
	w := NewWorker()
	if r.recorder != nil {
		w.WithRecorder(r.recorder)
	}
	r.workers[origin] = w
	return w
}

// Len returns the number of installed workers.
func (r *Registry) Len() int { return len(r.workers) }
