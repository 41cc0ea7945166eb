package server

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestSessionIDMintedAndStable(t *testing.T) {
	r := NewRecorder()
	req := httptest.NewRequest("GET", "/", nil)
	rec := httptest.NewRecorder()
	id := r.SessionID(rec, req)
	if id == "" {
		t.Fatal("empty session id")
	}
	cookie := rec.Header().Get("Set-Cookie")
	if !strings.Contains(cookie, SessionCookie+"="+id) {
		t.Fatalf("Set-Cookie = %q", cookie)
	}
	// Returning visitor with the cookie keeps the same id, no new cookie.
	req2 := httptest.NewRequest("GET", "/", nil)
	req2.AddCookie(&http.Cookie{Name: SessionCookie, Value: id})
	rec2 := httptest.NewRecorder()
	if got := r.SessionID(rec2, req2); got != id {
		t.Fatalf("returning id = %q, want %q", got, id)
	}
	if rec2.Header().Get("Set-Cookie") != "" {
		t.Fatal("re-set cookie for returning visitor")
	}
}

func TestRecordAndRecall(t *testing.T) {
	r := NewRecorder()
	r.RecordFetch("s1", "https://site.example/page.html", "/dyn/a.js")
	r.RecordFetch("s1", "https://site.example/page.html", "/dyn/b.png")
	r.RecordFetch("s1", "https://site.example/other.html", "/other.css")
	r.RecordFetch("s2", "https://site.example/page.html", "/theirs.js")

	got := r.Recorded("s1", "/page.html")
	if strings.Join(got, "|") != "/dyn/a.js|/dyn/b.png" {
		t.Fatalf("recorded = %v", got)
	}
	if r.Recorded("s1", "/missing.html") != nil {
		t.Fatal("recall invented a page")
	}
	if r.Recorded("ghost", "/page.html") != nil {
		t.Fatal("recall invented a session")
	}
}

func TestRecordIgnoresUnattributable(t *testing.T) {
	r := NewRecorder()
	r.RecordFetch("", "https://x/p.html", "/a")
	r.RecordFetch("s1", "", "/a")
	r.RecordFetch("s1", "://bad-url", "/a")
	if r.Sessions() != 0 {
		t.Fatalf("sessions = %d", r.Sessions())
	}
}

func TestRecorderPageWithQuery(t *testing.T) {
	r := NewRecorder()
	r.RecordFetch("s1", "https://site.example/page.html?tab=2", "/a.js")
	if got := r.Recorded("s1", "/page.html?tab=2"); len(got) != 1 {
		t.Fatalf("recorded = %v", got)
	}
}

func TestRecorderSessionEviction(t *testing.T) {
	r := NewRecorder()
	r.maxSessions = 3
	for i := 0; i < 5; i++ {
		r.RecordFetch(fmt.Sprintf("s%d", i), "https://x/p.html", "/a")
	}
	if r.Sessions() != 3 {
		t.Fatalf("sessions = %d", r.Sessions())
	}
	if r.Recorded("s0", "/p.html") != nil {
		t.Fatal("oldest session survived eviction")
	}
	if r.Recorded("s4", "/p.html") == nil {
		t.Fatal("newest session evicted")
	}
}

func TestRecorderURLCap(t *testing.T) {
	r := NewRecorder()
	r.maxURLs = 2
	for i := 0; i < 5; i++ {
		r.RecordFetch("s1", "https://x/p.html", fmt.Sprintf("/r%d", i))
	}
	if got := r.Recorded("s1", "/p.html"); len(got) != 2 {
		t.Fatalf("recorded = %v", got)
	}
}
