package server

import (
	"fmt"
	"net/http"
	"net/url"
	"sort"
	"sync"
)

// SessionCookie is the cookie that identifies a recording session.
const SessionCookie = "cc-sid"

// Recorder implements the paper's §3 alternative discovery strategy: "the
// server capturing a list of resource URLs that the client requests during
// a user's first visit to a webpage", keyed by session, so later visits can
// receive validation tokens even for resources only discoverable by
// executing JavaScript.
//
// Memory is bounded per the §6 concern: each (session, page) retains at
// most maxURLsPerPage URLs and the recorder holds at most maxSessions
// sessions, evicting the oldest wholesale.
type Recorder struct {
	mu       sync.Mutex
	sessions map[string]*sessionRecord
	order    []string // session IDs in creation order, for eviction
	nextID   int64
	// maxSessions and maxURLs are the constants below; only a test
	// reaches other values (export_test.go).
	maxSessions, maxURLs int
}

// No program sets the recorder's bounds, so they are constants rather than
// options (DESIGN.md, "Frozen values").
const (
	// maxSessions bounds retained sessions.
	maxSessions = 10000
	// maxURLsPerPage bounds one session's recording of one page.
	maxURLsPerPage = 500
)

type sessionRecord struct {
	// pages maps a page URL to the set of subresource paths its loads
	// requested.
	pages map[string]map[string]bool
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder {
	return &Recorder{sessions: make(map[string]*sessionRecord), maxSessions: maxSessions, maxURLs: maxURLsPerPage}
}

// SessionID returns the request's session ID, minting one (and setting the
// cookie on w) for first-time visitors.
func (r *Recorder) SessionID(w http.ResponseWriter, req *http.Request) string {
	if c, err := req.Cookie(SessionCookie); err == nil && c.Value != "" {
		return c.Value
	}
	r.mu.Lock()
	r.nextID++
	id := fmt.Sprintf("s%06d", r.nextID)
	r.mu.Unlock()
	http.SetCookie(w, &http.Cookie{Name: SessionCookie, Value: id, Path: "/", HttpOnly: true})
	return id
}

// RecordFetch notes that session's load of the page named by referer
// requested path. Requests without a parseable referer cannot be attributed
// to a page and are dropped.
func (r *Recorder) RecordFetch(sessionID, referer, path string) {
	if sessionID == "" || referer == "" {
		return
	}
	page := pageFromReferer(referer)
	if page == "" {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	rec, ok := r.sessions[sessionID]
	if !ok {
		if len(r.order) >= r.maxSessions {
			oldest := r.order[0]
			r.order = r.order[1:]
			delete(r.sessions, oldest)
		}
		rec = &sessionRecord{pages: make(map[string]map[string]bool)}
		r.sessions[sessionID] = rec
		r.order = append(r.order, sessionID)
	}
	set, ok := rec.pages[page]
	if !ok {
		set = make(map[string]bool)
		rec.pages[page] = set
	}
	if len(set) >= r.maxURLs {
		return
	}
	set[path] = true
}

// Recorded returns the subresource paths recorded for session's visits to
// page, in stable order.
func (r *Recorder) Recorded(sessionID, page string) []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	rec, ok := r.sessions[sessionID]
	if !ok {
		return nil
	}
	set, ok := rec.pages[page]
	if !ok {
		return nil
	}
	out := make([]string, 0, len(set))
	for p := range set {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// Sessions returns the number of retained sessions.
func (r *Recorder) Sessions() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.sessions)
}

// pageFromReferer extracts the origin-relative page URL from a Referer
// header value.
func pageFromReferer(ref string) string {
	u, err := url.Parse(ref)
	if err != nil {
		return ""
	}
	p := u.EscapedPath()
	if p == "" {
		p = "/"
	}
	if u.RawQuery != "" {
		p += "?" + u.RawQuery
	}
	return p
}
