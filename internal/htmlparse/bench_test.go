package htmlparse_test

import (
	"strings"
	"testing"

	"cachecatalyst/internal/htmlparse"
)

// benchDoc is a realistic homepage-sized document (~30 KB, ~60 resources).
func benchDoc() string {
	var b strings.Builder
	b.WriteString(`<!DOCTYPE html><html><head><title>bench</title>`)
	for i := 0; i < 6; i++ {
		b.WriteString(`<link rel="stylesheet" href="/css/s` + string(rune('0'+i)) + `.css">`)
	}
	for i := 0; i < 18; i++ {
		b.WriteString(`<script src="/js/a` + string(rune('a'+i)) + `.js" defer></script>`)
	}
	b.WriteString(`</head><body>`)
	for i := 0; i < 36; i++ {
		b.WriteString(`<div class="card" style="background: url(/img/bg.png)"><img src="/img/i` +
			string(rune('a'+i%26)) + `.png" srcset="/img/s.png 1x, /img/l.png 2x" alt="x"><p>`)
		for j := 0; j < 20; j++ {
			b.WriteString("lorem ipsum dolor sit amet consectetur ")
		}
		b.WriteString(`</p></div>`)
	}
	b.WriteString(`</body></html>`)
	return b.String()
}

func BenchmarkTokenize(b *testing.B) {
	doc := benchDoc()
	b.SetBytes(int64(len(doc)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		z := htmlparse.NewTokenizer(doc)
		for {
			if _, ok := z.Next(); !ok {
				break
			}
		}
	}
}

func BenchmarkParse(b *testing.B) {
	doc := benchDoc()
	b.SetBytes(int64(len(doc)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = htmlparse.Parse(doc)
	}
}

func BenchmarkExtractResources(b *testing.B) {
	doc := benchDoc()
	b.SetBytes(int64(len(doc)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rs := htmlparse.ExtractFromHTML(doc)
		if len(rs) == 0 {
			b.Fatal("no resources")
		}
	}
}
