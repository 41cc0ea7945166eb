package server

import (
	"net/http"
	"sync"
	"time"
)

// AccessEntry records one served request, for the operational visibility a
// production deployment needs when debugging cache behaviour ("why did
// that client revalidate?").
type AccessEntry struct {
	Time   time.Time `json:"time"`
	Method string    `json:"method"`
	Path   string    `json:"path"`
	Status int       `json:"status"`
	// BodyBytes is the entity bytes written (0 for 304s and HEAD).
	BodyBytes int `json:"bodyBytes"`
	// Conditional marks requests that carried a validator.
	Conditional bool `json:"conditional"`
	// MapEntries is the X-Etag-Config entry count on decorated HTML
	// responses, 0 otherwise.
	MapEntries int `json:"mapEntries,omitempty"`
}

// accessLog is a fixed-size ring of recent requests.
type accessLog struct {
	mu   sync.Mutex
	ring []AccessEntry
	next int
	full bool
}

func newAccessLog(size int) *accessLog {
	return &accessLog{ring: make([]AccessEntry, size)}
}

func (l *accessLog) add(e AccessEntry) {
	l.mu.Lock()
	l.ring[l.next] = e
	l.next++
	if l.next == len(l.ring) {
		l.next = 0
		l.full = true
	}
	l.mu.Unlock()
}

// recent returns entries oldest-first.
func (l *accessLog) recent() []AccessEntry {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.full {
		return append([]AccessEntry(nil), l.ring[:l.next]...)
	}
	out := make([]AccessEntry, 0, len(l.ring))
	out = append(out, l.ring[l.next:]...)
	out = append(out, l.ring[:l.next]...)
	return out
}

// RecentRequests returns the access-log ring oldest-first (nil when access
// logging is disabled).
func (s *Server) RecentRequests() []AccessEntry {
	if s.access == nil {
		return nil
	}
	return s.access.recent()
}

// logAccess records the entry if access logging is enabled.
func (s *Server) logAccess(r *http.Request, status, bodyBytes, mapEntries int) {
	if s.access == nil {
		return
	}
	s.access.add(AccessEntry{
		Time:        s.opts.Clock.Now(),
		Method:      r.Method,
		Path:        r.URL.Path,
		Status:      status,
		BodyBytes:   bodyBytes,
		Conditional: r.Header.Get("If-None-Match") != "" || r.Header.Get("If-Modified-Since") != "",
		MapEntries:  mapEntries,
	})
}
