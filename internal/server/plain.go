package server

import (
	"context"
	"net/http"
	"strconv"
	"strings"

	"cachecatalyst/internal/core"
	"cachecatalyst/internal/etag"
	"cachecatalyst/internal/telemetry"
)

// This file is the plain-response half of serving a page, which the Server
// and the decorating front end in front of it (catalyst.Middleware) share:
// the page URL, the worker script, the 200 entity write with its shared-body
// hand-off, decision reporting and preload links.

// maxPreloadHints caps the Link headers one response carries; past a few
// dozen the hints themselves delay the HTML they are racing.
const maxPreloadHints = 32

// preloadLinks returns the "Link: <url>; rel=preload" values advertising
// refs — the content of a 103 Early Hints response — at most
// maxPreloadHints of them, cut to their length so an append to them
// reallocates. Committing the 103 is the caller's business: only a real
// socket can carry one.
func preloadLinks(refs []core.Ref) []string {
	links := make([]string, min(len(refs), maxPreloadHints))
	for i := range links {
		as := "image"
		if refs[i].CSS {
			as = "style"
		}
		links[i] = "<" + refs[i].Key + ">; rel=preload; as=" + as
	}
	return links
}

// The worker script never changes within one build, so everything serving
// it derives from is computed once: it is requested by every first-visit
// client.
var (
	workerScriptBytes = []byte(core.ServiceWorkerScript)
	workerScriptTag   = etag.ForBytes(workerScriptBytes)
	workerEtagHeader  = []string{workerScriptTag.String()}
	workerCTypeHeader = []string{"text/javascript; charset=utf-8"}
	workerCacheHeader = []string{"no-cache"}
)

// ServeWorkerScript answers a GET or HEAD for the Service Worker script. It
// is marked no-cache so browsers revalidate it, matching how deployments
// keep worker logic updatable; those revalidations are answered 304.
func ServeWorkerScript(w http.ResponseWriter, r *http.Request) (status, n int) {
	h := w.Header()
	h["Content-Type"] = workerCTypeHeader
	h["Cache-Control"] = workerCacheHeader
	h["Etag"] = workerEtagHeader
	if !etag.NoneMatch(r.Header.Get("If-None-Match"), workerScriptTag) {
		w.WriteHeader(http.StatusNotModified)
		return http.StatusNotModified, 0
	}
	if r.Method != http.MethodHead {
		n, _ = w.Write(workerScriptBytes)
	}
	return http.StatusOK, n
}

// IsHTML reports whether a content type is an HTML document — the responses
// that get decorated.
func IsHTML(contentType string) bool { return strings.HasPrefix(contentType, "text/html") }

// WriteEntity commits a 200 carrying body and returns the body bytes
// written (none for HEAD). clen is body's precomputed Content-Length value
// when the caller has one, nil to render it.
//
// body must never be written again, by the caller or anyone else: a
// sharedWriter keeps body itself instead of copying it.
func WriteEntity(w http.ResponseWriter, r *http.Request, body []byte, clen []string) (n int) {
	if clen == nil {
		clen = []string{strconv.Itoa(len(body))}
	}
	w.Header()["Content-Length"] = clen
	w.WriteHeader(http.StatusOK)
	if r.Method != http.MethodHead {
		if sw, ok := w.(sharedWriter); ok {
			return sw.WriteShared(body)
		}
		n, _ = w.Write(body)
	}
	return n
}

// sharedWriter is the hand-off WriteEntity offers a ResponseWriter that
// keeps the bodies it is given: the simulator's origin adapter, whose
// response goes on to the emulated browser's caches unchanged. Write must
// copy, because its argument may be a reused buffer; WriteShared is handed
// a body no one writes again and may keep the slice itself.
type sharedWriter interface {
	WriteShared(body []byte) int
}

// PageURL is the origin-relative URL of the page being served, query
// included — the base relative references resolve against and the key
// renders are cached under.
func PageURL(r *http.Request) string {
	if r.URL.RawQuery != "" {
		return r.URL.Path + "?" + r.URL.RawQuery
	}
	return r.URL.Path
}

// Decide records one cache decision everywhere it is observable: the
// request trace and, when mirror is set and the status line is not yet
// committed, the response's Server-Timing header.
func Decide(ctx context.Context, h http.Header, mirror bool, name, detail string) {
	telemetry.Event(ctx, name, detail)
	if mirror {
		telemetry.AppendServerTiming(h, name)
	}
}
