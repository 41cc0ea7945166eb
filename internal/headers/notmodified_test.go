package headers

import (
	"net/http"
	"strings"
	"testing"
	"time"

	"cachecatalyst/internal/etag"
)

// notTakenFrom304 is the reference list of 304 fields the merge must ignore,
// written out independently of keptFrom304: Content-Length and the hop-by-hop
// fields, compared case-insensitively.
var notTakenFrom304 = map[string]bool{
	"content-length": true, "connection": true, "keep-alive": true, "proxy-connection": true,
	"proxy-authenticate": true, "proxy-authorization": true, "te": true, "trailer": true,
	"transfer-encoding": true, "upgrade": true,
}

// parseFields reads "Name: value" lines into a header, keeping names exactly as
// written (canonical or not) and repeated names as repeated values.
func parseFields(s string) http.Header {
	h := http.Header{}
	for _, line := range strings.Split(s, "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok {
			h[k] = append(h[k], strings.TrimSpace(v))
		}
	}
	return h
}

func sameValues(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// fullValues snapshots every value of h out to its slice's capacity, so a
// write past a value's length into its array shows as well.
func fullValues(h http.Header) map[string][]string {
	snap := make(map[string][]string, len(h))
	for k, vs := range h {
		snap[k] = append([]string(nil), vs[:cap(vs)]...)
	}
	return snap
}

// sameFullValues reports whether h holds exactly what snap recorded of it.
func sameFullValues(h http.Header, snap map[string][]string) bool {
	if len(h) != len(snap) {
		return false
	}
	for k, vs := range h {
		if want, ok := snap[k]; !ok || !sameValues(vs[:cap(vs)], want) {
			return false
		}
	}
	return true
}

// checkMerge holds one MergeNotModified call to its contract.
func checkMerge(t *testing.T, stored, notModified http.Header) http.Header {
	t.Helper()
	storedBefore, nmBefore := fullValues(stored), fullValues(notModified)
	got := MergeNotModified(nil, stored, notModified)

	for k, vs := range notModified {
		if notTakenFrom304[strings.ToLower(k)] {
			continue
		}
		if !sameValues(got[k], vs) {
			t.Fatalf("%s: merged %q, the 304 says %q", k, got[k], vs)
		}
	}
	for k, vs := range stored {
		if _, replaced := notModified[k]; replaced && !notTakenFrom304[strings.ToLower(k)] {
			continue
		}
		if !sameValues(got[k], vs) {
			t.Fatalf("%s: merged %q, stored %q and the 304 may not replace it", k, got[k], vs)
		}
	}
	for k := range got {
		_, inStored := stored[k]
		_, in304 := notModified[k]
		if !inStored && !(in304 && !notTakenFrom304[strings.ToLower(k)]) {
			t.Fatalf("%s: merged %q, which neither input supplies", k, got[k])
		}
	}
	// Merged values may share the inputs' arrays, which nobody writes in
	// place (the ownership rule), but an append to one must reallocate:
	// neither input, out to its values' capacity, may notice.
	for k, vs := range got {
		if cap(vs) != len(vs) {
			t.Fatalf("%s: merged value has spare capacity %d beyond its %d values", k, cap(vs), len(vs))
		}
		got[k] = append(vs, "appended")
	}
	for name, pair := range map[string]struct {
		h    http.Header
		snap map[string][]string
	}{"stored": {stored, storedBefore}, "304": {notModified, nmBefore}} {
		if !sameFullValues(pair.h, pair.snap) {
			t.Fatalf("appending to the merged header changed the %s header: %q, was %q", name, pair.h, pair.snap)
		}
	}
	return got
}

func TestMergeNotModified(t *testing.T) {
	stored := http.Header{
		"Content-Type":   {"text/html"},
		"Content-Length": {"1234"},
		"Cache-Control":  {"max-age=60"},
		"Etag":           {`"v1"`},
		"Date":           {"Mon, 18 Nov 2024 00:00:00 GMT"},
		"Link":           {"</a.css>; rel=preload", "</b.js>; rel=preload"},
	}
	notModified := http.Header{
		"Content-Length":    {"0"},
		"Cache-Control":     {"max-age=120"},
		"Etag":              {`"v1"`},
		"Date":              {"Mon, 18 Nov 2024 00:05:00 GMT"},
		"Connection":        {"close"},
		"Transfer-Encoding": {"chunked"},
		"X-Fresh":           {"yes"},
	}
	got := MergeNotModified(nil, stored, notModified)
	want := http.Header{
		"Content-Type":   {"text/html"},
		"Content-Length": {"1234"},
		"Cache-Control":  {"max-age=120"},
		"Etag":           {`"v1"`},
		"Date":           {"Mon, 18 Nov 2024 00:05:00 GMT"},
		"Link":           {"</a.css>; rel=preload", "</b.js>; rel=preload"},
		"X-Fresh":        {"yes"},
	}
	if len(got) != len(want) {
		t.Fatalf("merged %d fields, want %d: %v", len(got), len(want), got)
	}
	for k, vs := range want {
		if !sameValues(got[k], vs) {
			t.Errorf("%s = %q, want %q", k, got[k], vs)
		}
	}

	// Into an existing header: fields neither input names survive.
	dst := http.Header{"Server-Timing": {"map-reused"}}
	if out := MergeNotModified(dst, stored, notModified); out["Server-Timing"][0] != "map-reused" || out["X-Fresh"][0] != "yes" {
		t.Fatalf("merge into dst = %v", out)
	}
	checkMerge(t, stored, notModified)
}

// FuzzMergeNotModified: no panic; the 304 overrides stored values except
// Content-Length and hop-by-hop fields; every merged value is cut to its
// length, so appending to it leaves both inputs as they were.
func FuzzMergeNotModified(f *testing.F) {
	f.Add("Content-Type: text/html\nContent-Length: 10\nEtag: \"a\"\nSet-Cookie: x=1\nSet-Cookie: y=2",
		"Content-Length: 0\nEtag: \"a\"\nConnection: close\nDate: now\nSet-Cookie: z=3")
	f.Add("content-length: 5\nte: trailers\nX: 1", "CONTENT-LENGTH: 0\nTE: gzip\nX: 2\nx: 3")
	f.Add("", "Upgrade: h2c\nKeep-Alive: timeout=5\nProxy-Connection: keep-alive")
	f.Add("A: 1\nA: 2\nB:", "B: \nC: 3")
	f.Add("Link: 1\nLink: 2\nLink: 3\nEtag: \"a\"", "Vary: a\nVary: b\nVary: c") // values with spare capacity
	f.Fuzz(func(t *testing.T, stored, notModified string) {
		checkMerge(t, parseFields(stored), parseFields(notModified))
	})
}

// TestNotModifiedPrecedence pins RFC 9110 §13.2.2's order: If-None-Match
// decides alone when present, by weak comparison; If-Modified-Since is read
// only without it, at one-second granularity, and an unparsable date or an
// unknown Last-Modified is never a 304.
func TestNotModifiedPrecedence(t *testing.T) {
	lm := time.Date(2024, 5, 1, 12, 0, 0, 500e6, time.UTC) // half a second past the date it is sent as
	at, before, after := FormatHTTPDate(lm), FormatHTTPDate(lm.Add(-time.Hour)), FormatHTTPDate(lm.Add(time.Hour))
	strong, weak := etag.Tag{Opaque: "v1"}, etag.Tag{Opaque: "v1", Weak: true}
	cases := []struct {
		name     string
		inm, ims string
		tag      etag.Tag
		hasTag   bool
		modified time.Time
		want     bool
	}{
		{"unconditional", "", "", strong, true, lm, false},
		{"tag matches", `"v1"`, "", strong, true, lm, true},
		{"tag differs", `"v2"`, "", strong, true, lm, false},
		{"weak tag matches weakly", `"v1"`, "", weak, true, lm, true},
		{"weak request tag matches", `W/"v1"`, "", strong, true, lm, true},
		{"tag in a list", `"v0", W/"v1"`, "", strong, true, lm, true},
		{"star matches a tag", "*", "", strong, true, lm, true},
		{"no tag matches nothing", `"v1"`, "", etag.Tag{}, false, lm, false},
		{"no tag, star", "*", "", etag.Tag{}, false, lm, false},
		{"tag wins over a later date", `"v2"`, after, strong, true, lm, false},
		{"tag wins over an earlier date", `"v1"`, before, strong, true, lm, true},
		{"date equal to the second", "", at, strong, true, lm, true},
		{"date after", "", after, strong, true, lm, true},
		{"date before", "", before, strong, true, lm, false},
		{"unparsable date", "", "yesterday", strong, true, lm, false},
		{"no Last-Modified", "", after, strong, true, time.Time{}, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			req := http.Header{}
			if c.inm != "" {
				req.Set("If-None-Match", c.inm)
			}
			if c.ims != "" {
				req.Set("If-Modified-Since", c.ims)
			}
			if got := NotModified(req, c.tag, c.hasTag, c.modified); got != c.want {
				t.Errorf("NotModified(%v, %v, %v, %v) = %v, want %v", req, c.tag, c.hasTag, c.modified, got, c.want)
			}
		})
	}
}
