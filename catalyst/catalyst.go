// Package catalyst is the public API of the CacheCatalyst reproduction —
// the HotNets '24 proposal to eliminate cache-revalidation round trips by
// delivering validation tokens proactively.
//
// # What it does
//
// When a server serves a page's base HTML, it attaches an X-Etag-Config
// header mapping every same-origin subresource to its current entity tag,
// and injects a Service-Worker registration snippet. The Service Worker
// (whose JavaScript source ships in this package as WorkerScript) caches
// subresources and, on later visits, serves any resource whose cached tag
// matches the proactively delivered one with zero network round trips — no
// max-age tuning, no conditional requests for unchanged content.
//
// # Adopting it
//
//   - Wrap an existing http.Handler with Middleware to retrofit the
//     mechanism onto any Go web server.
//   - Or serve a directory with NewServer (the "modified Caddy" of the
//     paper), which also supports the first-visit recording extension that
//     covers JavaScript-discovered resources.
//   - Or front origins over HTTP: NewUpstream builds one origin's
//     health-checked reverse proxy to wrap with Middleware (catalystd
//     -origin), and NewEdge the whole multi-tenant edge a catalystd.json
//     describes (catalystd -config, and every instance of the cluster
//     harness).
//
// The internal packages additionally provide the emulated browser, network
// simulator and experiment harness that reproduce the paper's evaluation;
// see DESIGN.md and the examples directory.
package catalyst

import (
	"io/fs"
	"net/http"
	"time"

	"cachecatalyst/internal/core"
	"cachecatalyst/internal/etag"
	"cachecatalyst/internal/server"
	"cachecatalyst/internal/telemetry"
)

// HeaderName is the response header carrying the ETag map.
const HeaderName = core.HeaderName

// WorkerPath is the well-known URL of the Service Worker script.
const WorkerPath = core.ServiceWorkerPath

// WorkerScript is the JavaScript Service Worker served at WorkerPath; it
// implements the client side of the protocol in a real browser.
const WorkerScript = core.ServiceWorkerScript

// RegistrationSnippet is the inline script injected into HTML pages to
// install the Service Worker.
const RegistrationSnippet = core.RegistrationSnippet

// ETagMap maps same-origin resource paths to entity tags; its Encode form
// is the X-Etag-Config value.
type ETagMap = core.ETagMap

// DecodeMap parses an X-Etag-Config header value.
func DecodeMap(s string) (ETagMap, error) { return core.DecodeMap(s) }

// Tag is an HTTP entity tag.
type Tag = etag.Tag

// TagForBytes derives a strong entity tag from content.
func TagForBytes(b []byte) Tag { return etag.ForBytes(b) }

// CachePolicy is the per-resource cache-header configuration used by
// NewServer's content sources.
type CachePolicy = server.CachePolicy

// ServerOptions configures NewServer.
type ServerOptions struct {
	// Record enables the first-visit recording extension (§3 of the
	// paper): per-session capture of requested URLs, folded into later
	// ETag maps so JS-discovered resources are covered too.
	Record bool
	// Policy assigns Cache-Control per path; nil emits no Cache-Control
	// (CacheCatalyst needs none — that is the point).
	Policy func(path string) CachePolicy
	// AccessLogSize keeps a ring of recent requests readable via the
	// server's RecentRequests method; 0 disables access logging.
	AccessLogSize int
	// Telemetry indexes the server's counters, caches and latency
	// histogram in the given registry; WithMetricsOptions then serves the
	// full snapshot. Nil disables registry wiring (counters still work).
	Telemetry *telemetry.Registry
	// ServerTiming mirrors each request's cache decisions (etag-match,
	// map-built, network, …) back to the client in a Server-Timing
	// response header.
	ServerTiming bool
	// MaxInflight bounds concurrently decorated HTML responses (the
	// Middleware's gate); a page refused a slot within 50 ms is served
	// undecorated, and one refused with the queue full is answered 503.
	// Zero disables the admission gate.
	MaxInflight int
	// RequestBudget, when positive, deadlines each page; map resolution
	// inherits the remainder and ships partial maps on time rather than
	// complete maps late.
	RequestBudget time.Duration
	// MaxRenderBytes bounds the rendered-page cache. Zero selects the
	// server default (16 MiB); negative disables the cache.
	MaxRenderBytes int64
}

// NewServer serves the directory tree fsys with CacheCatalyst enabled:
// Middleware in front of a file server. The returned handler attaches
// X-Etag-Config to every HTML response, injects the registration snippet,
// serves the worker script, and answers conditional requests with 304s.
func NewServer(fsys fs.FS, opts ServerOptions) (http.Handler, error) {
	content, err := server.NewFSContent(fsys, opts.Policy)
	if err != nil {
		return nil, err
	}
	srv := server.New(content, server.Options{
		Record:        opts.Record,
		AccessLogSize: opts.AccessLogSize,
		Telemetry:     opts.Telemetry,
		ServerTiming:  opts.ServerTiming,
	})
	return Middleware(srv, MiddlewareOptions{
		MaxRenderBytes: opts.MaxRenderBytes,
		MaxInflight:    opts.MaxInflight,
		RequestBudget:  opts.RequestBudget,
	}), nil
}

// DefaultPolicy is a reasonable conventional-caching policy for static
// sites, useful as the baseline to compare CacheCatalyst against: immutable
// asset types get a day, HTML revalidates.
func DefaultPolicy(path string) CachePolicy {
	switch {
	case hasAnySuffix(path, ".html", ".htm", "/"):
		return CachePolicy{NoCache: true}
	case hasAnySuffix(path, ".css", ".js", ".mjs", ".woff2", ".woff"):
		return CachePolicy{MaxAge: 24 * time.Hour, HasMaxAge: true}
	default:
		return CachePolicy{MaxAge: time.Hour, HasMaxAge: true}
	}
}

func hasAnySuffix(s string, suffixes ...string) bool {
	for _, suf := range suffixes {
		if len(s) >= len(suf) && s[len(s)-len(suf):] == suf {
			return true
		}
	}
	return false
}
