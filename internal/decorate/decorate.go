// Package decorate is the paper's one server-side customization — traverse
// the HTML, attach X-Etag-Config, inject the registration snippet — written
// once. catalyst.Middleware and internal/server are adapters over it: they
// differ in how the raw HTML is obtained (a sniffing writer vs Content.Get),
// which Source answers the resolve's lookups (the probe cache vs Content)
// and what happens under overload, and share everything here: the render
// product, the map slot and its one reuse rule (Resolved.Verify), preload
// links, delta bases, the worker script, the page URL and decision
// reporting.
package decorate

import (
	"bytes"
	"context"
	"net/http"
	"strconv"
	"strings"

	"cachecatalyst/internal/cachestore"
	"cachecatalyst/internal/core"
	"cachecatalyst/internal/delta"
	"cachecatalyst/internal/etag"
	"cachecatalyst/internal/telemetry"
)

// BodyStoreBudget bounds each store that keeps one body per page: delta
// bases here, the middleware's stale copies.
const BodyStoreBudget = 8 << 20

// Render is everything about one decorated page that is a pure function of
// its URL and raw HTML: the extracted subresource references, the
// snippet-injected body, that body's validator, and the wire forms the
// serve path would otherwise re-render per request. Immutable after
// construction and shared across requests — including the header value
// slices, which are assigned into response header maps directly; nothing in
// net/http or this repository mutates a stored value slice in place.
type Render struct {
	Refs []core.Ref
	// Body is the entity actually sent, so Tag is derived from it and not
	// from the raw page. Never written to.
	Body []byte
	Tag  etag.Tag
	// TagStr is Tag.String(); EtagHeader and ClenHeader are the
	// single-element "Etag" and "Content-Length" values.
	TagStr     string
	EtagHeader []string
	ClenHeader []string
	// DeltaKey is the key Body is retained under as a future delta base:
	// pageURL + NUL + validator.
	DeltaKey string
	// snipAt and snipLen locate the injected snippet in Body (snipLen 0 when
	// the raw page already carried it): the raw page is
	// Body[:snipAt] + Body[snipAt+snipLen:], which is how IsRenderOf
	// recognises it without a second copy.
	snipAt, snipLen int
}

// NewRender runs parse → extract → inject → hash for one (pageURL, raw)
// pair.
func NewRender(pageURL, raw string) Render {
	at, gap := core.RegistrationOffset(raw)
	body := make([]byte, 0, len(raw)+gap)
	body = append(append(append(body, raw[:at]...), core.RegistrationSnippet[:gap]...), raw[at:]...)
	tag := etag.ForBytes(body)
	tagStr := tag.String()
	return Render{
		Refs:       core.ExtractPageRefs(pageURL, raw),
		Body:       body,
		Tag:        tag,
		TagStr:     tagStr,
		EtagHeader: []string{tagStr},
		ClenHeader: []string{strconv.Itoa(len(body))},
		DeltaKey:   pageURL + "\x00" + tagStr,
		snipAt:     at,
		snipLen:    gap,
	}
}

// IsRenderOf reports whether raw is, byte for byte, the page rd was rendered
// from. Injection is a pure insertion, so comparing raw against Body on
// either side of the snippet is the same equality as comparing it against a
// retained copy of the raw page — exact, allocation-free, and one memcmp's
// worth of work.
func (rd *Render) IsRenderOf(raw []byte) bool {
	at, rest := rd.snipAt, rd.snipAt+rd.snipLen
	return len(raw) == len(rd.Body)-rd.snipLen &&
		bytes.Equal(raw[:at], rd.Body[:at]) && bytes.Equal(raw[at:], rd.Body[rest:])
}

// Raw returns, in a fresh slice, the page rd was rendered from: Body without
// the injected snippet.
func (rd *Render) Raw() []byte {
	at, rest := rd.snipAt, rd.snipAt+rd.snipLen
	return append(append(make([]byte, 0, len(rd.Body)-rd.snipLen), rd.Body[:at]...), rd.Body[rest:]...)
}

// RenderSize charges a cached render for the memory that scales: the key,
// the body and the reference strings, plus a fixed allowance for the struct
// and per-reference bookkeeping.
func RenderSize(key string, rd *Render) int64 {
	n := int64(len(key) + len(rd.Body) + 192)
	for _, ref := range rd.Refs {
		n += int64(len(ref.Key)) + 32
	}
	return n
}

// maxPreloadHints caps the Link headers one response carries; past a few
// dozen the hints themselves delay the HTML they are racing.
const maxPreloadHints = 32

// AddPreloadLinks advertises refs as "Link: <url>; rel=preload" headers —
// the content of a 103 Early Hints response — and reports whether it added
// any. Committing the 103 is the caller's business: only a real socket can
// carry one.
func AddPreloadLinks(h http.Header, refs []core.Ref) bool {
	for i, ref := range refs {
		if i == maxPreloadHints {
			break
		}
		as := "image"
		if ref.CSS {
			as = "style"
		}
		h.Add("Link", "<"+ref.Key+">; rel=preload; as="+as)
	}
	return len(refs) > 0
}

// BaseStoreOptions sizes a delta-base store; the caller adds policy and
// telemetry.
func BaseStoreOptions() cachestore.Options[[]byte] {
	return cachestore.Options[[]byte]{
		MaxBytes: BodyStoreBudget,
		SizeOf:   func(key string, body []byte) int64 { return int64(len(key) + len(body)) },
	}
}

// DeltaBase retains rd's body under its validator as a future diff base,
// and returns the retained body the request names in X-Delta-Base, if any,
// with its tag. The lock-free Get doubles as the promotion that
// keeps a hot base resident, so a warm serve writes nothing. A nil store
// means delta encoding is off.
func DeltaBase(bases *cachestore.Store[[]byte], r *http.Request, pageURL string, rd *Render) (base []byte, from string) {
	if bases == nil {
		return nil, ""
	}
	if _, ok := bases.Get(rd.DeltaKey); !ok {
		bases.Put(rd.DeltaKey, rd.Body)
	}
	if from = r.Header.Get(delta.RequestHeader); from != "" && from != rd.TagStr {
		if base, ok := bases.Get(pageURL + "\x00" + from); ok {
			return base, from
		}
	}
	return nil, ""
}

// Patch returns the CCD1 patch from base to body when it is strictly
// smaller than body. Callers answer conditionals first — a 304 transfers
// nothing at all — so the diff runs only for a changed entity.
func Patch(base, body []byte) ([]byte, bool) {
	if base == nil {
		return nil, false
	}
	patch := delta.Diff(base, body)
	return patch, len(patch) < len(body)
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

// IsCSS reports whether a content type is a stylesheet — the responses the
// map builder inspects recursively.
func IsCSS(contentType string) bool { return strings.HasPrefix(contentType, "text/css") }

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
