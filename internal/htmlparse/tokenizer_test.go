package htmlparse

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func collect(t *testing.T, input string) []Token {
	t.Helper()
	z := NewTokenizer(input)
	var out []Token
	for {
		tok, ok := z.Next()
		if !ok {
			return out
		}
		out = append(out, tok)
	}
}

func TestTokenizeSimpleDocument(t *testing.T) {
	toks := collect(t, `<!DOCTYPE html><html><head><title>Hi</title></head><body>text</body></html>`)
	types := []TokenType{
		DoctypeToken, StartTagToken, StartTagToken, StartTagToken,
		TextToken, EndTagToken, EndTagToken, StartTagToken, TextToken,
		EndTagToken, EndTagToken,
	}
	if len(toks) != len(types) {
		t.Fatalf("got %d tokens, want %d: %+v", len(toks), len(types), toks)
	}
	for i, want := range types {
		if toks[i].Type != want {
			t.Errorf("token %d: type %v, want %v (%+v)", i, toks[i].Type, want, toks[i])
		}
	}
}

func TestTokenizeAttributes(t *testing.T) {
	toks := collect(t, `<img src="a.png" alt='the image' width=10 hidden>`)
	if len(toks) != 1 || toks[0].Type != StartTagToken || toks[0].Data != "img" {
		t.Fatalf("got %+v", toks)
	}
	checks := map[string]string{"src": "a.png", "alt": "the image", "width": "10", "hidden": ""}
	for name, want := range checks {
		got, ok := toks[0].Attr(name)
		if !ok || got != want {
			t.Errorf("attr %q = %q, %v; want %q", name, got, ok, want)
		}
	}
}

func TestTokenizeSelfClosing(t *testing.T) {
	toks := collect(t, `<br/><img src="x"/>`)
	if len(toks) != 2 {
		t.Fatalf("got %+v", toks)
	}
	for _, tok := range toks {
		if tok.Type != SelfClosingTagToken {
			t.Errorf("token %+v should be self-closing", tok)
		}
	}
}

func TestTokenizeUppercaseNormalized(t *testing.T) {
	toks := collect(t, `<IMG SRC="A.png">`)
	if toks[0].Data != "img" {
		t.Errorf("tag name not lowercased: %q", toks[0].Data)
	}
	if v, ok := toks[0].Attr("src"); !ok || v != "A.png" {
		t.Errorf("attr name not lowercased or value altered: %q %v", v, ok)
	}
}

func TestScriptContentIsRawText(t *testing.T) {
	toks := collect(t, `<script>if (a < b) { x["<div>"] = 1; }</script><p>after</p>`)
	if len(toks) < 4 {
		t.Fatalf("got %+v", toks)
	}
	if toks[1].Type != TextToken || toks[1].Data != `if (a < b) { x["<div>"] = 1; }` {
		t.Fatalf("script body mangled: %+v", toks[1])
	}
	if toks[2].Type != EndTagToken || toks[2].Data != "script" {
		t.Fatalf("script close tag missing: %+v", toks[2])
	}
}

func TestStyleContentIsRawText(t *testing.T) {
	toks := collect(t, `<style>a > b { color: red }</style>`)
	if toks[1].Data != "a > b { color: red }" {
		t.Fatalf("style body mangled: %q", toks[1].Data)
	}
}

func TestRawTextCaseInsensitiveClose(t *testing.T) {
	toks := collect(t, `<script>x</SCRIPT>done`)
	if len(toks) != 4 || toks[2].Type != EndTagToken {
		t.Fatalf("got %+v", toks)
	}
}

func TestUnterminatedRawText(t *testing.T) {
	toks := collect(t, `<script>never closed`)
	if len(toks) != 2 || toks[1].Data != "never closed" {
		t.Fatalf("got %+v", toks)
	}
}

func TestComments(t *testing.T) {
	toks := collect(t, `a<!-- <img src="not-a-resource"> -->b`)
	if len(toks) != 3 {
		t.Fatalf("got %+v", toks)
	}
	if toks[1].Type != CommentToken || toks[1].Data != ` <img src="not-a-resource"> ` {
		t.Fatalf("comment mangled: %+v", toks[1])
	}
}

func TestUnterminatedComment(t *testing.T) {
	toks := collect(t, `<!-- open forever`)
	if len(toks) != 1 || toks[0].Type != CommentToken {
		t.Fatalf("got %+v", toks)
	}
}

func TestLoneAngleIsText(t *testing.T) {
	toks := collect(t, `1 < 2 and <3`)
	for _, tok := range toks {
		if tok.Type != TextToken {
			t.Fatalf("lone < should lex as text: %+v", toks)
		}
	}
}

func TestEntityDecodingInTextAndAttrs(t *testing.T) {
	toks := collect(t, `<a href="/x?a=1&amp;b=2">AT&amp;T &#169; &#x1F600;</a>`)
	if v, _ := toks[0].Attr("href"); v != "/x?a=1&b=2" {
		t.Errorf("attr entity: %q", v)
	}
	if toks[1].Data != "AT&T © \U0001F600" {
		t.Errorf("text entity: %q", toks[1].Data)
	}
}

func TestDecodeEntities(t *testing.T) {
	tests := []struct{ in, want string }{
		{"plain", "plain"},
		{"&amp;", "&"},
		{"&lt;x&gt;", "<x>"},
		{"&quot;q&quot;", `"q"`},
		{"&#65;", "A"},
		{"&#x41;", "A"},
		{"&unknown;", "&unknown;"},
		{"&", "&"},
		{"&;", "&;"},
		{"a&amp", "a&amp"}, // no trailing semicolon: left alone
		{"&#0;", "&#0;"},   // NUL rejected
	}
	for _, tt := range tests {
		if got := DecodeEntities(tt.in); got != tt.want {
			t.Errorf("DecodeEntities(%q) = %q, want %q", tt.in, got, tt.want)
		}
	}
}

func TestTokenizerProgressQuick(t *testing.T) {
	// Property: the tokenizer terminates and offsets are monotone
	// non-decreasing within input bounds for arbitrary input.
	f := func(input string) bool {
		z := NewTokenizer(input)
		last := -1
		for steps := 0; ; steps++ {
			if steps > len(input)+16 {
				return false // failed to make progress
			}
			tok, ok := z.Next()
			if !ok {
				return true
			}
			if tok.Offset < last || tok.Offset >= len(input) && len(input) > 0 {
				return false
			}
			last = tok.Offset
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestAttrMissing(t *testing.T) {
	toks := collect(t, `<img src="x">`)
	if _, ok := toks[0].Attr("nope"); ok {
		t.Error("missing attribute reported present")
	}
}

func TestTokenTypeStrings(t *testing.T) {
	for tt, want := range map[TokenType]string{
		TextToken: "Text", StartTagToken: "StartTag", EndTagToken: "EndTag",
		SelfClosingTagToken: "SelfClosingTag", CommentToken: "Comment",
		DoctypeToken: "Doctype", TokenType(99): "Unknown",
	} {
		if got := tt.String(); got != want {
			t.Errorf("TokenType(%d).String() = %q, want %q", tt, got, want)
		}
	}
}

// oldIndexFold is the reference close-tag search indexCloseTag must agree
// with: strings.EqualFold of "</"+tag at every byte, quadratic but plainly
// right.
func oldIndexFold(haystack, needle string) int {
	n := len(needle)
	if n == 0 {
		return 0
	}
	for i := 0; i+n <= len(haystack); i++ {
		if strings.EqualFold(haystack[i:i+n], needle) {
			return i
		}
	}
	return -1
}

func TestIndexCloseTagMatchesEqualFold(t *testing.T) {
	cases := []struct {
		in   string
		tag  string
		want int
	}{
		{"a()</script>", "script", 3},
		{"a()</SCRIPT>", "script", 3},
		{"x</ScRiPt x>", "script", 1},
		{"x</scriptx>", "script", 1}, // a prefix match, as before: the end tag is "scriptx"
		{"x</scrip", "script", -1},   // unterminated
		{"if (a<b) </ script>", "script", -1},
		{"<<//style></style>", "style", 10},
		{"<", "style", -1},
		{"</", "title", -1},
		{"", "title", -1},
		{"ſcript </ſcript></script>", "script", 18}, // U+017F folds to 's' in Unicode, not in ASCII
		{"</TEXTAREA", "textarea", 0},
		{"<\x00/style></Style>", "style", 9},
	}
	for _, c := range cases {
		if got, old := indexCloseTag(c.in, c.tag), oldIndexFold(c.in, "</"+c.tag); got != c.want || old != c.want {
			t.Errorf("indexCloseTag(%q, %q) = %d, old search %d, want %d", c.in, c.tag, got, old, c.want)
		}
	}
	// Random haystacks over a close-tag-heavy alphabet.
	rng := rand.New(rand.NewSource(1))
	const alpha = "<</sSyYtTlLeEcCrRiIpP x>ſ\xff"
	for i := 0; i < 50_000; i++ {
		b := make([]byte, rng.Intn(24))
		for j := range b {
			b[j] = alpha[rng.Intn(len(alpha))]
		}
		for _, tag := range []string{"style", "script", "title"} {
			if got, want := indexCloseTag(string(b), tag), oldIndexFold(string(b), "</"+tag); got != want {
				t.Fatalf("indexCloseTag(%q, %q) = %d, old search %d", b, tag, got, want)
			}
		}
	}
}

func TestRawTextTokensAcrossCloseTagCase(t *testing.T) {
	for _, c := range []struct{ in, text, end string }{
		{"<script>a<b</SCRIPT>", "a<b", "script"},
		{"<script>x</ScRiPt x>y", "x", "script"},
		{"<script>x</scriptx>y", "x", "scriptx"},
		{"<style>p{}</Style >", "p{}", "style"},
	} {
		toks := collect(t, c.in)
		if len(toks) < 3 || toks[1].Type != TextToken || toks[1].Data != c.text || toks[2].Type != EndTagToken || toks[2].Data != c.end {
			t.Errorf("%q: tokens %+v, want text %q then </%s>", c.in, toks, c.text, c.end)
		}
	}
	toks := collect(t, "<title>never closed <b>")
	if len(toks) != 2 || toks[1].Data != "never closed <b>" {
		t.Errorf("unterminated title: %+v", toks)
	}
}
