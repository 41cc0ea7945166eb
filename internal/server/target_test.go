package server

import (
	"math/rand"
	"net/http"
	"net/url"
	"strings"
	"testing"
	"testing/quick"

	"cachecatalyst/internal/netsim"
)

// checkTarget holds the origin adapter's request target to
// url.ParseRequestURI: a handler behind it sees exactly the URL
// ParseRequestURI returns for target (Path, RawPath, RawQuery, ForceQuery
// and every other field), or the adapter answers 400 where ParseRequestURI
// fails. Where plainTarget builds the URL itself it must build that URL;
// where it declines, the adapter parses. It reports whether plainTarget
// built it.
func checkTarget(t *testing.T, target string) bool {
	t.Helper()
	var seen *url.URL
	o := NewOrigin(http.HandlerFunc(func(_ http.ResponseWriter, r *http.Request) { seen = r.URL }))
	resp := o.RoundTrip(&netsim.Request{Method: "GET", Path: target})
	want, err := url.ParseRequestURI(target)
	if err != nil {
		if resp.StatusCode != http.StatusBadRequest || seen != nil {
			t.Fatalf("target %q: ParseRequestURI fails (%v), but the adapter answered %d with URL %v", target, err, resp.StatusCode, seen)
		}
		if _, ok := plainTarget(target); ok {
			t.Fatalf("target %q: plainTarget built a URL for a target ParseRequestURI refuses", target)
		}
		return false
	}
	if seen == nil || *seen != *want {
		t.Fatalf("target %q: the handler saw %#v, ParseRequestURI gives %#v", target, seen, want)
	}
	u, ok := plainTarget(target)
	if ok && *u != *want {
		t.Fatalf("target %q: plainTarget built %#v, ParseRequestURI gives %#v", target, u, want)
	}
	return ok
}

// targetPieces are what the random targets are made of: the bytes and
// sequences where a URL's path, query and fragment rules differ.
var targetPieces = []string{"/", "/", "a", "Z", "0", ".", "-", "_", "~", "%", "%2F", "%zz", "#", "?", "??", "//",
	":", "@", "&", "=", "+", ",", ";", "$", "!", "*", "(", "'", " ", "\x00", "\t", "\x7f", "é", "[", "]", "|", "\\"}

// TestRequestTargetMatchesParseRequestURIQuick: every target made of
// targetPieces is handed to the handler as url.ParseRequestURI reads it,
// and every path of unescaped path bytes with a plain query is built
// without a parse.
func TestRequestTargetMatchesParseRequestURIQuick(t *testing.T) {
	cfg := &quick.Config{MaxCount: 20000, Rand: rand.New(rand.NewSource(1))}
	if err := quick.Check(func(picks []uint8) bool {
		var b strings.Builder
		for _, p := range picks {
			b.WriteString(targetPieces[int(p)%len(targetPieces)])
		}
		checkTarget(t, b.String())
		return true
	}, cfg); err != nil {
		t.Fatal(err)
	}
	const pathBytes, queryBytes = "abcXYZ019-_.~$&+,:;=@/", "abc019=&+%/?:@!*'()[]"
	if err := quick.Check(func(path, query []uint8) bool {
		var b strings.Builder
		b.WriteString("/x")
		for _, c := range path {
			b.WriteByte(pathBytes[int(c)%len(pathBytes)])
		}
		if len(query) > 0 {
			b.WriteByte('?')
			for _, c := range query {
				b.WriteByte(queryBytes[int(c)%len(queryBytes)])
			}
		}
		return checkTarget(t, b.String())
	}, cfg); err != nil {
		t.Fatal("a plain target was parsed instead of built:", err)
	}
}

// FuzzRequestTarget: the adapter's request URL is url.ParseRequestURI's,
// whether plainTarget builds it or declines.
func FuzzRequestTarget(f *testing.F) {
	for _, s := range []string{
		"/", "/index.html", "/css/a.css?v=3", "/a/b;c=d/@e:f", "/q?x=1&y=2/3?4",
		"/a%20b", "/a%2Fb", "/a%zz", "/a#frag", "/a?b#c", "//evil.example/x", "///x",
		"/a?", "/a?b?", "/a??", "?", "*", "", "a/b", "http://h.example/x", "/a\x00b", "/a\x7f",
		"/a b", "/a?x=1 2", "/é", "/a!b", "/a*b", "/a'b", "/a+b", "/a\tb", "/a[b]",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, target string) { checkTarget(t, target) })
}
