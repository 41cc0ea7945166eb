package htmlparse_test

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"cachecatalyst/internal/htmlparse"
	"cachecatalyst/internal/vclock"
	"cachecatalyst/internal/webgen"
)

// checkExtractPage fails unless ExtractPage(src) yields exactly what the
// tree path reads off Parse(src): the same resources (URL, Kind, Async and
// Offset, in order) and the same base href.
func checkExtractPage(t testing.TB, src string) {
	t.Helper()
	rs, base, ok := htmlparse.ExtractPage(src)
	doc := htmlparse.Parse(src)
	wantRS := htmlparse.ExtractResources(doc)
	wantBase, wantOK := htmlparse.BaseHref(doc)
	if !reflect.DeepEqual(rs, wantRS) {
		t.Fatalf("ExtractPage(%q) resources\n got %+v\nwant %+v", src, rs, wantRS)
	}
	if base != wantBase || ok != wantOK {
		t.Fatalf("ExtractPage(%q) base = %q, %v; want %q, %v", src, base, ok, wantBase, wantOK)
	}
}

// grammarFragments are the pieces grammarDoc strings together: nested,
// unterminated and falsely closed <style>, <picture>/<source>, <base> with
// and without a usable href, the implied-end tags, raw-text elements
// holding markup, entities and upper-case tags, and every element the rule
// table knows.
var grammarFragments = []string{
	"<style>", "</style>", "</STYLE>", "</stylex>", "</style >", "<style/>",
	`<style style="background:url(/sa.png)">`,
	"a{background:url(/s1.png)}", "@import '/imp.css';", "@import url(b.css);",
	"<style>.x{background:url(/in.png)}</style>",
	"<style><style>.n{background:url(/n.png)}</style>",
	"<picture>", "</picture>", "<PICTURE>",
	`<source srcset="/p1.webp 1x, /p2.webp 2x">`, `<source src="/m.mp4">`, "<SOURCE SRC=/M2.webm>",
	`<base href="/dir/">`, "<base>", `<base href="  ">`, "<base href=''>", "<base target=_blank>", `<BASE HREF="https://cdn.example/x/">`,
	"<p>", "</p>", "<li>", "</li>", "<ul>", "</ul>", "<td>", "<th>", "<tr>", "</tr>", "<table>", "</table>",
	"<dt>", "<dd>", "<dl>", "<option>", "<select>", "</select>",
	`<script>document.write("<img src=/js.png>")</script>`, `<script src="/a.js" async>`, "<script defer src=/d.js>", "</script>",
	"<title><link rel=stylesheet href=/t.css></title>", "<textarea><img src=/ta.png></textarea>",
	"<noscript><img src=/ns.png></noscript>", "<xmp><img src=/x.png>",
	`<img src="/i&amp;j.png" srcset="a.png 1x, b&#47;c.png 2x">`, "&amp; text &lt; &#47; ", `<IMG SRC="/UP.PNG">`,
	`<LINK REL="STYLESHEET" HREF="/UP.CSS">`, `<link rel="preload" as="font" href="/f.woff2">`,
	"<link rel=icon href=/fav.ico>", "<link rel=prefetch href=/next.html>", "<link rel=stylesheet>",
	`<div style="background:url(/bg.png)">`, "<div>", "</div>", "<span>", "</span>",
	"<video src=/v.mp4 poster=/poster.jpg>", "<audio src=/a.mp3>", "<iframe src=/frame.html>", "</iframe>",
	"<embed src=/e.swf>", "<object data=/o.pdf>", "</object>", "<input type=IMAGE src=/btn.png>", "<track src=/sub.vtt>",
	"<!-- <img src=/c.png> -->", "<!doctype html>", "text ", "<", "</", "</ p>", "<html>", "</body>",
	`<img src="data:x">`, `<img src="#frag">`, `<img src=" /sp.png ">`, "<img/src=/slash.png>",
}

// grammarDoc strings together up to 24 grammar fragments.
func grammarDoc(rng *rand.Rand) string {
	var b strings.Builder
	for n := 1 + rng.Intn(24); n > 0; n-- {
		b.WriteString(grammarFragments[rng.Intn(len(grammarFragments))])
	}
	return b.String()
}

func TestExtractPageMatchesTreeOnGrammarDocs(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	n := 100_000
	if testing.Short() {
		n = 10_000
	}
	for i := 0; i < n; i++ {
		checkExtractPage(t, grammarDoc(rng))
	}
}

func TestExtractPageMatchesTreeOnCorpus(t *testing.T) {
	for _, s := range parseSeeds {
		checkExtractPage(t, s)
	}
	checkExtractPage(t, benchDoc())
	pages := 0
	for _, site := range webgen.Generate(webgen.Params{Sites: 20, Seed: 1}, vclock.NewVirtual(vclock.Epoch)).Sites {
		for _, p := range site.Content().Paths() {
			if r, ok := site.Content().Get(p); ok && strings.HasPrefix(r.ContentType, "text/html") {
				checkExtractPage(t, string(r.Body))
				pages++
			}
		}
	}
	if pages < 40 {
		t.Fatalf("checked %d corpus pages, want every site's two pages", pages)
	}
}

// TestExtractPageStyleOrder pins the case a streaming extractor most easily
// gets wrong: a <style> that stays open (its "close tag" was </stylex>)
// holds the elements after it, and the tree's pre-order walk emits the
// style's own references before theirs.
func TestExtractPageStyleOrder(t *testing.T) {
	src := `<style>a{background:url(/s.png)}</stylex><img src="/in.png"></style><img src="/after.png">`
	checkExtractPage(t, src)
	var got []string
	for _, r := range htmlparse.ExtractFromHTML(src) {
		got = append(got, r.URL)
	}
	if want := []string{"/s.png", "/in.png", "/after.png"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("order %q, want %q", got, want)
	}
}

// FuzzExtractPage checks ExtractPage against the tree path on arbitrary
// input. Run with `go test -run=^$ -fuzz=FuzzExtractPage
// ./internal/htmlparse/`; the seeds run on every plain `go test`.
func FuzzExtractPage(f *testing.F) {
	for _, s := range parseSeeds {
		f.Add(s)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 16; i++ {
		f.Add(grammarDoc(rng))
	}
	f.Fuzz(func(t *testing.T, src string) {
		checkExtractPage(t, src)
	})
}
