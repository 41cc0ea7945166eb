package server

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"cachecatalyst/internal/core"
	"cachecatalyst/internal/headers"
	"cachecatalyst/internal/vclock"
)

func buildSite() *MemContent {
	c := NewMemContent()
	c.SetBody("/index.html", `<html><head><link rel="stylesheet" href="/a.css"><script src="/b.js"></script></head><body><img src="/d.jpg"></body></html>`, CachePolicy{NoCache: true})
	c.SetBody("/a.css", `.x { background: url(/bg.png); }`, CachePolicy{MaxAge: 7 * 24 * time.Hour, HasMaxAge: true})
	c.SetBody("/b.js", `console.log("b")`, CachePolicy{NoCache: true})
	c.SetBody("/d.jpg", "JPEGDATA", CachePolicy{MaxAge: time.Hour, HasMaxAge: true})
	c.SetBody("/bg.png", "PNGDATA", CachePolicy{})
	return c
}

func get(t *testing.T, s *Server, path string, hdr map[string]string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest("GET", path, nil)
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	return rec
}

func TestServeBasicResource(t *testing.T) {
	s := New(buildSite(), Options{Clock: vclock.NewVirtual(vclock.Epoch)})
	rec := get(t, s, "/a.css", nil)
	if rec.Code != 200 {
		t.Fatalf("status = %d", rec.Code)
	}
	if got := rec.Header().Get("Content-Type"); got != "text/css; charset=utf-8" {
		t.Errorf("Content-Type = %q", got)
	}
	if got := rec.Header().Get("Cache-Control"); got != "max-age=604800" {
		t.Errorf("Cache-Control = %q", got)
	}
	if rec.Header().Get("Etag") == "" {
		t.Error("missing Etag")
	}
	if rec.Header().Get("Date") != "Mon, 18 Nov 2024 00:00:00 GMT" {
		t.Errorf("Date = %q", rec.Header().Get("Date"))
	}
	if rec.Header().Get("Content-Length") == "" {
		t.Error("missing Content-Length")
	}
}

func TestNotFound(t *testing.T) {
	s := New(buildSite(), Options{})
	if rec := get(t, s, "/ghost.js", nil); rec.Code != 404 {
		t.Fatalf("status = %d", rec.Code)
	}
	if s.Metrics.NotFound.Load() != 1 {
		t.Error("NotFound metric not counted")
	}
}

func TestMethodNotAllowed(t *testing.T) {
	s := New(buildSite(), Options{})
	req := httptest.NewRequest("POST", "/a.css", nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("status = %d", rec.Code)
	}
}

func TestHeadOmitsBody(t *testing.T) {
	s := New(buildSite(), Options{})
	req := httptest.NewRequest("HEAD", "/a.css", nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != 200 || rec.Body.Len() != 0 {
		t.Fatalf("HEAD: status=%d len=%d", rec.Code, rec.Body.Len())
	}
}

func TestConditionalGet304(t *testing.T) {
	s := New(buildSite(), Options{})
	first := get(t, s, "/d.jpg", nil)
	tag := first.Header().Get("Etag")
	second := get(t, s, "/d.jpg", map[string]string{"If-None-Match": tag})
	if second.Code != http.StatusNotModified {
		t.Fatalf("status = %d", second.Code)
	}
	if second.Body.Len() != 0 {
		t.Error("304 carried a body")
	}
	if s.Metrics.NotModified.Load() != 1 {
		t.Error("NotModified metric not counted")
	}
	// A stale validator gets the full body.
	third := get(t, s, "/d.jpg", map[string]string{"If-None-Match": `"stale"`})
	if third.Code != 200 || third.Body.Len() == 0 {
		t.Fatalf("stale validator: status=%d", third.Code)
	}
}

func TestIfModifiedSince(t *testing.T) {
	c := NewMemContent()
	lm := vclock.Epoch.Add(-48 * time.Hour)
	c.Set("/doc.txt", &Resource{Body: []byte("text"), LastModified: lm})
	s := New(c, Options{Clock: vclock.NewVirtual(vclock.Epoch)})

	// Unmodified since the client's date → 304.
	rec := get(t, s, "/doc.txt", map[string]string{
		"If-Modified-Since": "Sun, 17 Nov 2024 00:00:00 GMT", // one day after lm
	})
	if rec.Code != http.StatusNotModified {
		t.Fatalf("status = %d, want 304", rec.Code)
	}
	// Modified after the client's date → 200.
	rec = get(t, s, "/doc.txt", map[string]string{
		"If-Modified-Since": "Thu, 14 Nov 2024 00:00:00 GMT", // before lm
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, want 200", rec.Code)
	}
	// Exactly equal timestamps → 304 ("not modified since").
	rec = get(t, s, "/doc.txt", map[string]string{
		"If-Modified-Since": "Sat, 16 Nov 2024 00:00:00 GMT",
	})
	if rec.Code != http.StatusNotModified {
		t.Fatalf("status = %d, want 304 for equal timestamps", rec.Code)
	}
	// Malformed date is ignored.
	rec = get(t, s, "/doc.txt", map[string]string{"If-Modified-Since": "not a date"})
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, want 200 for malformed IMS", rec.Code)
	}
}

func TestIfNoneMatchTakesPrecedenceOverIMS(t *testing.T) {
	c := NewMemContent()
	c.Set("/doc.txt", &Resource{Body: []byte("text"), LastModified: vclock.Epoch.Add(-time.Hour)})
	s := New(c, Options{Clock: vclock.NewVirtual(vclock.Epoch)})
	first := get(t, s, "/doc.txt", nil)

	// Stale INM + satisfied IMS: RFC 9110 says evaluate INM only → 200.
	rec := get(t, s, "/doc.txt", map[string]string{
		"If-None-Match":     `"stale-tag"`,
		"If-Modified-Since": headers.FormatHTTPDate(vclock.Epoch),
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, want 200 (INM precedence)", rec.Code)
	}
	// Matching INM + unsatisfied IMS → 304.
	rec = get(t, s, "/doc.txt", map[string]string{
		"If-None-Match":     first.Header().Get("Etag"),
		"If-Modified-Since": "Thu, 01 Jan 1970 00:00:00 GMT",
	})
	if rec.Code != http.StatusNotModified {
		t.Fatalf("status = %d, want 304 (INM precedence)", rec.Code)
	}
}

func TestCatalystOffLeavesHTMLAlone(t *testing.T) {
	s := New(buildSite(), Options{})
	rec := get(t, s, "/index.html", nil)
	if rec.Header().Get(core.HeaderName) != "" {
		t.Error("map header present without catalyst mode")
	}
	if strings.Contains(rec.Body.String(), "serviceWorker") {
		t.Error("snippet injected without catalyst mode")
	}
}

func TestTypeByPath(t *testing.T) {
	for p, want := range map[string]string{
		"/a.css":       "text/css; charset=utf-8",
		"/a.js":        "text/javascript; charset=utf-8",
		"/a.mjs":       "text/javascript; charset=utf-8",
		"/page.html":   "text/html; charset=utf-8",
		"/":            "text/html; charset=utf-8",
		"/noext":       "text/html; charset=utf-8",
		"/f.woff2":     "font/woff2",
		"/a.js?v=3":    "text/javascript; charset=utf-8",
		"/img.svg":     "image/svg+xml",
		"/data.json":   "application/json",
		"/x.unknownxt": "application/octet-stream",
	} {
		if got := TypeByPath(p); got != want {
			t.Errorf("TypeByPath(%q) = %q, want %q", p, got, want)
		}
	}
}

func TestCachePolicyCacheControl(t *testing.T) {
	tests := []struct {
		p    CachePolicy
		want string
	}{
		{CachePolicy{NoStore: true}, "no-store"},
		{CachePolicy{NoCache: true}, "no-cache"},
		{CachePolicy{MaxAge: time.Hour, HasMaxAge: true}, "max-age=3600"},
		{CachePolicy{HasMaxAge: true}, "max-age=0"},
		{CachePolicy{}, ""},
	}
	for _, tt := range tests {
		if got := tt.p.CacheControl(); got != tt.want {
			t.Errorf("%+v → %q, want %q", tt.p, got, tt.want)
		}
	}
}
