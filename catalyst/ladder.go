package catalyst

import (
	"bytes"
	"errors"
	"net/http"
	"strconv"
	"time"

	"cachecatalyst/internal/etag"
	"cachecatalyst/internal/headers"
	"cachecatalyst/internal/resilience"
	"cachecatalyst/internal/server"
	"cachecatalyst/internal/telemetry"
)

// This file is the middleware's degradation ladder: what a request gets
// when full service — inner handler plus probe fan-out plus map assembly —
// is not affordable. The rungs, in order of preference:
//
//  1. Stale: the last successfully rendered copy of the page, served with
//     Warning 110 and its last-known X-Etag-Config. Costs no inner-handler
//     work at all.
//  2. Passthrough: the inner handler runs once but the response streams
//     un-instrumented — no probing, no map, no snippet. Sheds the probe
//     amplification (one HTML request fanning out to N subresource
//     probes), which is the part that melts a saturated server.
//  3. Reject: 503 with Retry-After. The honest answer when neither a
//     stale copy nor an un-instrumented pass is affordable.
//
// Every degraded response is accounted on exactly one rung counter, which
// is what lets the chaos suite assert "no client-visible 5xx while a
// stale copy exists" and "every shed request lands on one rung".

// staleEntry is the last-known-good serve of one HTML page: everything
// needed to answer without touching the inner handler.
type staleEntry struct {
	body  []byte // shared with the render it was recorded from; never written to
	tag   etag.Tag
	enc   string // last X-Etag-Config encoding; possibly outdated, still valid tags at serve time
	ctype string
	at    time.Time
}

// staleEntrySize charges an entry for its body, key and map encoding.
func staleEntrySize(key string, e *staleEntry) int64 {
	return int64(len(key) + len(e.body) + len(e.enc) + len(e.ctype) + 96)
}

// staleFor returns the unexpired stale entry for pageURL in the tenant's
// stale cache, if any, and its age: an entry is served up to and including
// the instant its age reaches the stale TTL.
func (m *middleware) staleFor(ts *tenantState, pageURL string) (*staleEntry, time.Duration, bool) {
	if ts.stales == nil {
		return nil, 0, false
	}
	e, ok := ts.stales.Get(pageURL)
	if !ok {
		return nil, 0, false
	}
	age := m.tune.clock.Now().Sub(e.at)
	if age > ts.staleTTL {
		return nil, 0, false
	}
	return e, age, true
}

// recordStale refreshes the last-known-good copy of a page after a
// successful instrumented serve. The hot path skips the write while the
// existing entry still matches and is young; a quarter of the stale TTL
// bounds how outdated the recorded timestamp may run.
func (m *middleware) recordStale(ts *tenantState, pageURL string, ent *renderEntry, encoded string, hdr http.Header) {
	if ts.stales == nil {
		return
	}
	now := m.tune.clock.Now()
	if prev, ok := ts.stales.Peek(pageURL); ok &&
		prev.tag == ent.Tag && prev.enc == encoded && now.Sub(prev.at) < ts.staleTTL/4 {
		return
	}
	ts.stales.Put(pageURL, &staleEntry{
		body:  ent.Body,
		tag:   ent.Tag,
		enc:   encoded,
		ctype: hdr.Get("Content-Type"),
		at:    now,
	})
}

// serveStale answers the request from the stale cache, if an unexpired
// entry exists: 200 (or 304 on a matching validator) with a Warning 110
// header, the stored body, and the last-known map. Reports whether it
// served; reason lands on the request trace.
func (m *middleware) serveStale(ts *tenantState, w http.ResponseWriter, r *http.Request, pageURL, reason string) bool {
	e, age, ok := m.staleFor(ts, pageURL)
	if !ok {
		return false
	}
	m.metrics.LadderStale.Add(1)
	h := w.Header()
	m.decide(r.Context(), h, "stale-serve", reason)
	if e.ctype != "" {
		h.Set("Content-Type", e.ctype)
	}
	if e.enc != "" {
		h.Set(HeaderName, e.enc)
	}
	h.Set("Etag", e.tag.String())
	h.Set("Warning", `110 - "Response is Stale"`)
	h.Set("Age", strconv.FormatInt(int64(age/time.Second), 10))
	if !etag.NoneMatch(r.Header.Get("If-None-Match"), e.tag) {
		w.WriteHeader(http.StatusNotModified)
		return true
	}
	server.WriteEntity(w, r, e.body, nil)
	return true
}

// servePlain delivers an already-buffered HTML entity un-instrumented:
// the raw body, no snippet, no map, no probing. Used when the request's
// deadline budget ran out after the inner handler finished but before
// the probe fan-out could start — late-but-plain beats later-and-decorated.
// A held page that was revalidated (held set) brought no body: the raw page
// is taken out of the held render, under the validator the inner handler
// just vouched for.
func (m *middleware) servePlain(w http.ResponseWriter, r *http.Request, sw *sniffWriter, pageURL string, held *renderEntry) {
	h := w.Header()
	var body []byte
	if held != nil {
		headers.MergeNotModified(h, held.header, sw.header)
		h["Etag"], body = held.inm, held.raw()
	} else {
		copyHeader(h, sw.header)
		// sw's buffer is reused once this request ends, and WriteEntity
		// may hand its body to a writer that keeps it: send a copy.
		body = bytes.Clone(sw.body())
	}
	m.decide(r.Context(), h, "budget-exhausted", pageURL)
	server.WriteEntity(w, r, body, nil)
}

// serveReject answers 503 + Retry-After, the ladder's bottom rung.
func (m *middleware) serveReject(w http.ResponseWriter, r *http.Request, reason string) {
	m.metrics.LadderRejected.Add(1)
	telemetry.Event(r.Context(), "shed", reason)
	h := w.Header()
	h.Set("Retry-After", strconv.Itoa(int(retryAfter/time.Second)))
	h.Set("Cache-Control", "no-store")
	http.Error(w, "overloaded, retry shortly", http.StatusServiceUnavailable)
}

// shed routes a gate-refused request down the ladder and reports whether it
// answered it. A timed-out queue wait means the server is busy but moving:
// an un-instrumented pass is still affordable — the inner handler run once
// with the original request, conditionals intact, or, in front of a
// *server.Server, the server serving the page undecorated, which shed
// leaves to it. A full queue means saturation: only pre-computed answers
// (stale) or a refusal are.
func (m *middleware) shed(ts *tenantState, w http.ResponseWriter, r *http.Request, pageURL string, err error) bool {
	m.metrics.MapSheds.Add(1)
	if (r.Method == http.MethodGet || r.Method == http.MethodHead) && m.serveStale(ts, w, r, pageURL, "shed") {
		return true
	}
	if !errors.Is(err, resilience.ErrQueueTimeout) {
		m.serveReject(w, r, "queue-full")
		return true
	}
	m.metrics.LadderPassthrough.Add(1)
	m.decide(r.Context(), w.Header(), "passthrough", "shed")
	if m.content == nil && m.serveInner(w, r) {
		http.Error(w, "internal error", http.StatusInternalServerError)
	}
	return m.content == nil
}
