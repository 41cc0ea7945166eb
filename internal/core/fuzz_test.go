package core

import (
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"cachecatalyst/internal/etag"
)

// decodeMapJSON is DecodeMap as it was before the one-pass decode:
// encoding/json for every input. It is the reference FuzzDecodeMap holds
// DecodeMap to.
func decodeMapJSON(s string) (ETagMap, error) {
	if len(s) > MaxEncodedMapBytes {
		return nil, fmt.Errorf("etag map: %d bytes exceeds limit %d", len(s), MaxEncodedMapBytes)
	}
	if strings.TrimSpace(s) == "" {
		return ETagMap{}, nil
	}
	var raw map[string]string
	if err := json.Unmarshal([]byte(s), &raw); err != nil {
		return nil, fmt.Errorf("etag map: %w", err)
	}
	m := make(ETagMap, len(raw))
	for p, v := range raw {
		if t, ok := etag.Parse(v); ok {
			m[p] = t
		}
	}
	return m, nil
}

// FuzzDecodeMap checks the X-Etag-Config decoder against hostile header
// values: every input must give the same map, and the same error or none,
// as decodeMapJSON, the encoding/json decode DecodeMap's one pass stands in
// for; and a re-encoded decode must be stable. The seeds cover the chaos
// fault model (truncated JSON from mid-transfer header corruption,
// duplicated keys, oversized values, non-UTF-8 bytes) and the edges of the
// one pass: Encode's escapes, weak and empty tags, whitespace between
// tokens and bytes after the closing brace.
func FuzzDecodeMap(f *testing.F) {
	f.Add(`{}`)
	f.Add(`{"/a.css":"\"v1\""}`)
	f.Add(`{"/a":"W/\"x\"","/b":"garbage"}`)
	f.Add(`[1,2,3]`)
	f.Add(`{"dup":"\"1\"","dup":"\"2\""}`)
	f.Add(`{"dup":"\"1\"","dup":"\"2"}`) // the last value is malformed
	f.Add(`{"dup":"\"1\"","dup":"W/\"\""}`)
	f.Add(`{"` + "\x00" + `":"\"v\""}`)
	// Encode's own output for keys and tags that need escaping, weak tags
	// and an empty opaque.
	f.Add((ETagMap{
		"/a<b>&c.css": {Opaque: "<&>"}, `/q"uote\back`: {Opaque: `x"y\z`, Weak: true},
		"/ctl\x01\t\n": {Opaque: "\x1f"}, "/ünï\xff": {Opaque: "é\xfe", Weak: true},
		"/w": {Opaque: "w", Weak: true}, "/empty": {}, "/weak-empty": {Weak: true},
	}).Encode())
	f.Add((ETagMap{"/a.css": {Opaque: "v1"}, "/b.js": {Opaque: "v2", Weak: true}, "": {Opaque: "root"}}).Encode())
	// Whitespace between tokens, and bytes after the closing brace.
	f.Add(` {"/a" : "\"v1\"" , "/b":"\"v2\""} `)
	f.Add("{\"/a\":\"\\\"v1\\\"\"}\n")
	f.Add(`{"/a":"\"v1\""}x`)
	f.Add(`{}{}`)
	f.Add(`{"/a":"\"v1\"",}`)
	f.Add(`null`)
	// Truncation points a ChaosOrigin would produce: a valid encoding cut
	// mid-key, mid-value, and mid-structure.
	full := (ETagMap{"/a.css": {Opaque: "v1"}, "/b.js": {Opaque: "v2"}}).Encode()
	f.Add(full[:len(full)/2])
	f.Add(full[:len(full)-1])
	f.Add(`{"/a.css`)
	// Oversized single value and oversized whole header.
	f.Add(`{"/big":"` + strings.Repeat("A", 4096) + `"}`)
	f.Add(`{` + strings.Repeat(`"/x":"v",`, 2048) + `}`)
	// Non-UTF-8 and control bytes, raw and escaped.
	f.Add("{\"/\xff\xfe\":\"\\\"v\\\"\"}")
	f.Add("\x80\x81\x82")
	f.Add(`{"/a":"` + "\x1b[31m" + `"}`)
	f.Add(`{"/a":"\"v\u00e9\"","/b":"\"\u003c\""}`)
	f.Fuzz(func(t *testing.T, input string) {
		m, err := DecodeMap(input)
		want, wantErr := decodeMapJSON(input)
		if fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("DecodeMap(%q) error %v, encoding/json gives %v", input, err, wantErr)
		}
		if !reflect.DeepEqual(m, want) {
			t.Fatalf("DecodeMap(%q) = %v, encoding/json gives %v", input, m, want)
		}
		if err != nil {
			return
		}
		// Round-trip stability on the accepted subset.
		again, err := DecodeMap(m.Encode())
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if len(again) != len(m) {
			t.Fatalf("round trip changed size: %d vs %d", len(again), len(m))
		}
		for k, v := range m {
			if again[k] != v {
				t.Fatalf("round trip changed %q: %v vs %v", k, again[k], v)
			}
		}
	})
}

// FuzzBuildMap feeds arbitrary HTML through the full map builder with a
// resolver that accepts everything: no input may panic it, and every key
// must be resolvable back to a sane path or absolute URL.
func FuzzBuildMap(f *testing.F) {
	f.Add("/index.html", `<img src="/a.png">`)
	f.Add("/", `<link rel=stylesheet href=s.css><script src=//x.example/j.js>`)
	f.Add("/p", "<style>@import 'c.css';</style>")
	f.Fuzz(func(t *testing.T, pageURL, html string) {
		res := &acceptAllResolver{}
		m := BuildMap(pageURL, html, res, BuildOptions{
			CrossOriginETag: func(u string) (etag.Tag, bool) { return etag.ForVersion(u, 1), true },
		})
		for k := range m {
			if k == "" {
				t.Fatal("empty map key")
			}
		}
	})
}

// TestDecodeMapRejectsHostileHeaders pins the decoder's behaviour on the
// exact corruption shapes the chaos suite injects: truncated JSON is an
// error (treated upstream like an absent header), oversized headers are
// refused outright, and salvageable maps drop only their bad entries.
func TestDecodeMapRejectsHostileHeaders(t *testing.T) {
	full := (ETagMap{"/a.css": {Opaque: "v1"}, "/b.js": {Opaque: "v2"}}).Encode()
	for _, tc := range []struct {
		name, in string
		wantErr  bool
		wantLen  int
	}{
		{"truncated-half", full[:len(full)/2], true, 0},
		{"truncated-last-byte", full[:len(full)-1], true, 0},
		{"not-an-object", `["/a.css"]`, true, 0},
		{"number", `42`, true, 0},
		{"oversized", `{"/a":"` + strings.Repeat("x", MaxEncodedMapBytes) + `"}`, true, 0},
		{"non-utf8-garbage", "\xff\xfe{\x00", true, 0},
		{"empty", "", false, 0},
		{"whitespace", "  \t ", false, 0},
		{"bad-entry-skipped", `{"/good":"\"v1\"","/bad":"no quotes"}`, false, 1},
		{"intact", full, false, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, err := DecodeMap(tc.in)
			if tc.wantErr {
				if err == nil {
					t.Fatalf("DecodeMap(%q) accepted garbage: %v", tc.in[:min(len(tc.in), 40)], m)
				}
				return
			}
			if err != nil {
				t.Fatalf("DecodeMap failed: %v", err)
			}
			if len(m) != tc.wantLen {
				t.Fatalf("len = %d, want %d (%v)", len(m), tc.wantLen, m)
			}
		})
	}
}

type acceptAllResolver struct{}

func (acceptAllResolver) ETagFor(path string) (etag.Tag, bool) {
	return etag.ForVersion(path, 1), true
}

func (acceptAllResolver) StylesheetBody(path string) (string, bool) {
	return "", false
}

// TestDecodeMapTakesEncodeInOnePass: Encode's output for tags and paths
// of plain bytes is what the one pass exists for, so it must not fall
// through to encoding/json.
func TestDecodeMapTakesEncodeInOnePass(t *testing.T) {
	m := ETagMap{"/a.css": {Opaque: "v1"}, "/b c.js": {Opaque: "x-2", Weak: true}, "": {Opaque: "root"}}
	enc := m.Encode()
	got, ok := decodeEncoded(enc)
	if !ok {
		t.Fatalf("Encode output %q fell through to encoding/json", enc)
	}
	if !reflect.DeepEqual(got, m) {
		t.Fatalf("one pass decoded %v, want %v", got, m)
	}
}
