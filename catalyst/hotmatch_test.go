package catalyst

import (
	"bytes"
	"math/rand"
	"net/http"
	"strings"
	"testing"

	"cachecatalyst/internal/core"
	"cachecatalyst/internal/decorate"
)

// hotMatchDocs are the document shapes the snippet injector distinguishes —
// where it inserts, whether it inserts at all — plus the inputs on which an
// offset computed anywhere but in the document itself goes wrong.
var hotMatchDocs = []string{
	`<!DOCTYPE html><html><head><title>T</title><link rel="stylesheet" href="/a.css"></head><body><img src="/b.png"></body></html>`,
	`<HTML><HEAD data-x="1" lang=en><TITLE>T</TITLE></HEAD><BODY></BODY></HTML>`,
	`<html><body><header>nav</header><p>only a header</p></body></html>`,
	`<p>no head at all <img src="a.png">`,
	`<html><head>` + core.RegistrationSnippet + `<title>already there</title></head></html>`,
	`<html><head>` + core.RegistrationSnippet[:len(core.RegistrationSnippet)/2] + `</head><body>a prefix of the snippet at the insertion point</body></html>`,
	``,
	"<!-- \u0130stanbul \u0130\u0130\u0130 --><html><head><title>grows when lowered</title></head></html>",
	"<!-- 273 \u212a \u212a \u212a --><html><HEAD><title>shrinks when lowered</title></HEAD></html>",
	"\xff\xfe<html><head\n><title>invalid utf-8</title></head><body>\xc3</body></html>",
}

// hotMatchPositions are mutation sites for a document whose snippet went in
// at offset at: the ends, and every byte around the seam.
func hotMatchPositions(n, at int) []int {
	var out []int
	for _, p := range []int{0, 1, at - 2, at - 1, at, at + 1, at + 2, n / 2, n - 2, n - 1, n} {
		if p >= 0 && p <= n {
			out = append(out, p)
		}
	}
	return out
}

// TestHotMatchIsEquality holds the warm fast lane's compare to what it
// replaced: for the render of raw, IsRenderOf(x) ⇔ bytes.Equal(raw, x), over
// byte flips, insertions, deletions and truncations before, at and after the
// snippet's offset. The lane itself is driven with the same inputs: whatever
// sequence of bodies one URL serves, the entry render returns is the
// render of the body it was handed.
func TestHotMatchIsEquality(t *testing.T) {
	m := Middleware(http.NotFoundHandler(), MiddlewareOptions{}).(*middleware)
	for di, doc := range hotMatchDocs {
		raw := []byte(doc)
		rd := decorate.NewRender("/", doc)
		at, _ := core.RegistrationOffset(doc)
		check := func(what string, x []byte) {
			t.Helper()
			if got, want := rd.IsRenderOf(x), bytes.Equal(raw, x); got != want {
				t.Fatalf("doc %d, %s: IsRenderOf(%q) = %v, bytes.Equal(raw, x) = %v", di, what, x, got, want)
			}
			if ent := m.render(&m.def, "/", x, nil); string(ent.Body) != core.InjectRegistration(string(x)) {
				t.Fatalf("doc %d, %s: hot lane served the render of another body for %q", di, what, x)
			}
			// Leave the index pinning rd's page again, so the next input is
			// compared against it and not against this one.
			m.render(&m.def, "/", raw, nil)
		}
		check("identity", raw)
		check("copy", append([]byte(nil), raw...))
		check("nil", nil)
		check("injected body", rd.Body)
		for _, p := range hotMatchPositions(len(raw), at) {
			check("truncate", raw[:p])
			check("suffix", raw[p:])
			check("insert", append(append(append([]byte(nil), raw[:p]...), 'x'), raw[p:]...))
			check("insert snippet", append(append(append([]byte(nil), raw[:p]...), core.RegistrationSnippet...), raw[p:]...))
			if p < len(raw) {
				flipped := append([]byte(nil), raw...)
				flipped[p] ^= 0x20
				check("flip", flipped)
				check("delete", append(append([]byte(nil), raw[:p]...), raw[p+1:]...))
			}
		}

		rng := rand.New(rand.NewSource(int64(di) + 1))
		for i := 0; i < 2000; i++ {
			x := append([]byte(nil), raw...)
			for edits := 1 + rng.Intn(3); edits > 0; edits-- {
				p := rng.Intn(len(x) + 1)
				switch op := rng.Intn(4); {
				case op == 0 && p < len(x):
					x[p] ^= byte(1 << rng.Intn(8))
				case op == 1:
					x = append(x[:p:p], append([]byte{byte(rng.Intn(256))}, x[p:]...)...)
				case op == 2 && p < len(x):
					x = append(x[:p:p], x[p+1:]...)
				case op == 3:
					x = x[:p]
				}
			}
			if got, want := rd.IsRenderOf(x), bytes.Equal(raw, x); got != want {
				t.Fatalf("doc %d, mutation %d: IsRenderOf(%q) = %v, bytes.Equal = %v", di, i, x, got, want)
			}
		}
	}
}

// FuzzHotMatch is the same property with both sides chosen by the fuzzer.
func FuzzHotMatch(f *testing.F) {
	for _, doc := range hotMatchDocs {
		f.Add(doc, doc)
		f.Add(doc, strings.ToLower(doc))
		f.Add(doc, core.InjectRegistration(doc))
		f.Add(doc, doc+"x")
		if len(doc) > 0 {
			f.Add(doc, doc[1:])
			f.Add(doc, doc[:len(doc)-1])
		}
	}
	f.Fuzz(func(t *testing.T, raw, other string) {
		rd := decorate.NewRender("/", raw)
		if string(rd.Body) != core.InjectRegistration(raw) {
			t.Fatalf("render body of %q is not its injection", raw)
		}
		if !rd.IsRenderOf([]byte(raw)) {
			t.Fatalf("render of %q does not match its own page", raw)
		}
		if got, want := rd.IsRenderOf([]byte(other)), raw == other; got != want {
			t.Fatalf("IsRenderOf = %v for raw %q, other %q", got, raw, other)
		}
	})
}
