package core

import (
	"fmt"
	"testing"

	"cachecatalyst/internal/etag"
)

func benchMap(n int) ETagMap {
	m := ETagMap{}
	for i := 0; i < n; i++ {
		p := fmt.Sprintf("/assets/resource-%03d.js", i)
		m[p] = etag.ForVersion(p, uint64(i))
	}
	return m
}

// BenchmarkMapEncode measures the server-side cost of serializing the
// X-Etag-Config header for a typical page (70 resources).
func BenchmarkMapEncode(b *testing.B) {
	m := benchMap(70)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s := m.Encode(); len(s) == 0 {
			b.Fatal("empty")
		}
	}
}

// BenchmarkMapDecode measures the client-side parse of the same header.
func BenchmarkMapDecode(b *testing.B) {
	enc := benchMap(70).Encode()
	b.SetBytes(int64(len(enc)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := DecodeMap(enc)
		if err != nil || len(m) != 70 {
			b.Fatal("decode failed")
		}
	}
}

// BenchmarkBuildMap measures the full DOM-traversal + CSS-recursion path
// the server runs per HTML response.
func BenchmarkBuildMap(b *testing.B) {
	res := &fakeResolver{tags: map[string]etag.Tag{}, css: map[string]string{}}
	var html string
	for i := 0; i < 5; i++ {
		p := fmt.Sprintf("/css/s%d.css", i)
		res.tags[p] = etag.ForVersion(p, 1)
		res.css[p] = fmt.Sprintf(".x { background: url(/img/c%d.png) }", i)
		res.tags[fmt.Sprintf("/img/c%d.png", i)] = etag.ForVersion(p, 2)
		html += fmt.Sprintf(`<link rel="stylesheet" href="%s">`, p)
	}
	for i := 0; i < 40; i++ {
		p := fmt.Sprintf("/img/i%02d.png", i)
		res.tags[p] = etag.ForVersion(p, 1)
		html += fmt.Sprintf(`<img src="%s">`, p)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := BuildMap("/index.html", html, res, BuildOptions{})
		if len(m) != 50 {
			b.Fatalf("map size %d", len(m))
		}
	}
}

// BenchmarkExtractPageRefs measures the extract phase a render miss pays,
// on a page of the benchmark's page_churn shape (40 KB, 40 references).
func BenchmarkExtractPageRefs(b *testing.B) {
	page := churnShapedPage(40_000)
	b.SetBytes(int64(len(page)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if refs := ExtractPageRefs("/p/0001.html", page); len(refs) != 40 {
			b.Fatalf("%d refs", len(refs))
		}
	}
}

// BenchmarkDecide measures the per-request Service-Worker decision.
func BenchmarkDecide(b *testing.B) {
	m := benchMap(70)
	tag := m["/assets/resource-033.js"]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if Decide(m, "/assets/resource-033.js", tag) != ServeFromCache {
			b.Fatal("wrong decision")
		}
	}
}

// BenchmarkInjectRegistration measures the HTML rewrite per navigation.
func BenchmarkInjectRegistration(b *testing.B) {
	html := `<html><head><title>x</title></head><body>` + string(make([]byte, 30_000)) + `</body></html>`
	b.SetBytes(int64(len(html)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out := InjectRegistration(html); len(out) <= len(html) {
			b.Fatal("not injected")
		}
	}
}
