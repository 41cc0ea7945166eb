package jsexec

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestExtractFetches(t *testing.T) {
	js := `// app.js v=3
//@fetch /js/child.js
var x = 1;
  //@fetch /img/lazy.png
console.log("//@fetch /not/a/directive-in-string"); //@fetch /also/not
//@fetch
//@fetchnope /x
`
	got := ExtractFetches(js)
	want := []string{"/js/child.js", "/img/lazy.png"}
	if strings.Join(got, "|") != strings.Join(want, "|") {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestExtractFetchesEmpty(t *testing.T) {
	if got := ExtractFetches("var a = 1;"); got != nil {
		t.Fatalf("got %v", got)
	}
	if got := ExtractFetches(""); got != nil {
		t.Fatalf("got %v", got)
	}
}

func TestDirectiveRoundTrip(t *testing.T) {
	js := Directive("/a.png") + "\n" + Directive("/b.js") + "\n"
	got := ExtractFetches(js)
	if len(got) != 2 || got[0] != "/a.png" || got[1] != "/b.js" {
		t.Fatalf("got %v", got)
	}
}

// Property: every directive emitted is recovered, in order, regardless of
// surrounding script text.
func TestDirectiveAlwaysRecoveredQuick(t *testing.T) {
	f := func(before, after string, urls []string) bool {
		var clean []string
		for _, u := range urls {
			u = strings.TrimSpace(strings.ReplaceAll(u, "\n", ""))
			if u != "" {
				clean = append(clean, u)
			}
		}
		var b strings.Builder
		b.WriteString(strings.ReplaceAll(before, DirectivePrefix, "") + "\n")
		for _, u := range clean {
			b.WriteString(Directive(u) + "\n")
		}
		b.WriteString(strings.ReplaceAll(after, DirectivePrefix, "") + "\n")
		got := ExtractFetches(b.String())
		if len(got) != len(clean) {
			return false
		}
		for i := range clean {
			if got[i] != clean[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// splitReference is ExtractFetches written over strings.Split: the
// reference the line scanner must agree with.
func splitReference(js string) []string {
	var out []string
	for _, line := range strings.Split(js, "\n") {
		line = strings.TrimSpace(line)
		if !strings.HasPrefix(line, DirectivePrefix) {
			continue
		}
		if url := strings.TrimSpace(line[len(DirectivePrefix):]); url != "" {
			out = append(out, url)
		}
	}
	return out
}

// TestExtractFetchesMatchesSplit checks the line scanner against the
// strings.Split reference on line-ending and whitespace edge cases and on
// random scripts built from directive-like fragments.
func TestExtractFetchesMatchesSplit(t *testing.T) {
	same := func(js string) bool {
		return strings.Join(ExtractFetches(js), "\x00") == strings.Join(splitReference(js), "\x00")
	}
	for _, js := range []string{
		"", "\n", "\n\n", "//@fetch /a", "//@fetch /a\n", "\n//@fetch /a\n\n",
		"//@fetch /a\r\n//@fetch /b\r\n", " //@fetch /nbsp \u0085\n", "\t//@fetch \t\n",
		"//@fetch //@fetch /x\n", "x //@fetch /y\n//@fetch /z",
	} {
		if !same(js) {
			t.Errorf("%q: got %q, want %q", js, ExtractFetches(js), splitReference(js))
		}
	}
	frags := []string{"//@fetch ", "/p.js", "\n", "\r\n", " ", "\t", "x", "//@fetch\n", " "}
	f := func(picks []uint8) bool {
		var b strings.Builder
		for _, p := range picks {
			b.WriteString(frags[int(p)%len(frags)])
		}
		return same(b.String())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}
