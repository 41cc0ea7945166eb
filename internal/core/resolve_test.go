package core

import (
	"fmt"
	"math/rand"
	"net/url"
	"strings"
	"testing"
	"unsafe"
)

// TestResolveSameOriginFastPathExact checks the plain-path fast path
// against the general url.Parse + ResolveReference route, on generated
// references under http, https, scheme-less, ftp and opaque bases.
func TestResolveSameOriginFastPathExact(t *testing.T) {
	var bases []*url.URL
	for _, s := range []string{"http://h.example/dir/page.html", "https://h.example/a/b/", "/dir/page.html", "ftp://h.example/x/y", "http:opaque"} {
		u, err := url.Parse(s)
		if err != nil {
			t.Fatal(err)
		}
		bases = append(bases, u)
	}
	// Refs over an alphabet rich in what decides the fast path: slashes,
	// dots, unreserved bytes, and bytes that must be escaped or that start
	// a query, fragment or scheme.
	const alpha = "//..abzAZ09-_~%?#:@ é"
	rng := rand.New(rand.NewSource(7))
	accepted := 0
	for i := 0; i < 40_000; i++ {
		b := []byte{'/'}
		if rng.Intn(8) == 0 {
			b = b[:0]
		}
		for n := rng.Intn(12); n > 0; n-- {
			b = append(b, alpha[rng.Intn(len(alpha))])
		}
		ref := string(b)
		if isPlainPath(ref) {
			accepted++
		}
		for _, base := range bases {
			got, gotOK := resolveSameOrigin(base, ref)
			want, wantOK := resolveSameOriginURL(base, ref)
			if got != want || gotOK != wantOK {
				t.Fatalf("resolveSameOrigin(%q, %q) = %q, %v; url.ResolveReference gives %q, %v", base, ref, got, gotOK, want, wantOK)
			}
		}
	}
	if accepted < 2_000 {
		t.Fatalf("fast path accepted only %d refs; the test is not exercising it", accepted)
	}
}

// TestExtractPageRefsKeysDoNotAliasDocument checks that no Ref.Key points
// into the document string: a cached reference list must not keep the page
// it was extracted from alive.
func TestExtractPageRefsKeysDoNotAliasDocument(t *testing.T) {
	doc := churnShapedPage(40_000) + `<base href="/b/"><img src="rel.png"><img src="/q.png?v=1">` +
		`<img src="https://cdn.example/x.png"><style>.a{background:url(/css-in.png)}</style>` +
		`<link rel=stylesheet href="/s%41.css">`
	refs := ExtractPageRefs("/p/0001.html", doc)
	if len(refs) < 45 {
		t.Fatalf("only %d refs extracted", len(refs))
	}
	lo := uintptr(unsafe.Pointer(unsafe.StringData(doc)))
	hi := lo + uintptr(len(doc))
	for _, r := range refs {
		if p := uintptr(unsafe.Pointer(unsafe.StringData(r.Key))); p >= lo && p < hi {
			t.Errorf("key %q points into the document", r.Key)
		}
	}
}

// churnShapedPage is the shape of the benchmark's page_churn pages: 4
// stylesheets and 12 scripts in the head, 24 images in the body, padded
// with paragraphs of text to about size bytes.
func churnShapedPage(size int) string {
	var b strings.Builder
	b.WriteString("<!DOCTYPE html>\n<!-- /p/0001.html rev 3 5f1e -->\n<html><head>\n<title>/p/0001.html</title>\n")
	for i := 0; i < 4; i++ {
		fmt.Fprintf(&b, "<link rel=\"stylesheet\" href=\"/css/c%04d.css\">\n", i*10)
	}
	for i := 0; i < 12; i++ {
		fmt.Fprintf(&b, "<script src=\"/js/j%04d.js\"></script>\n", i*10+1)
	}
	b.WriteString("</head><body>\n")
	for i := 0; i < 24; i++ {
		fmt.Fprintf(&b, "<img src=\"/img/i%04d.png\" alt=\"\">\n", i*10+5)
	}
	for b.Len() < size {
		b.WriteString("<p>lorem ipsum dolor sit amet consectetur adipiscing elit sed do eiusmod tempor incididunt ut labore et dolore magna aliqua</p>\n")
	}
	b.WriteString("</body></html>\n")
	return b.String()
}
