package core

import (
	"encoding/json"
	"os/exec"
	"strings"
	"testing"
	"testing/quick"

	"cachecatalyst/internal/htmlparse"
)

func TestInjectAfterHead(t *testing.T) {
	in := `<!DOCTYPE html><html><head><title>T</title></head><body></body></html>`
	out := InjectRegistration(in)
	wantPrefix := `<!DOCTYPE html><html><head>` + RegistrationSnippet
	if !strings.HasPrefix(out, wantPrefix) {
		t.Fatalf("snippet not after <head>: %s", out)
	}
}

func TestInjectHeadWithAttributes(t *testing.T) {
	in := `<html><head lang="en"><title>T</title></head></html>`
	out := InjectRegistration(in)
	if !strings.Contains(out, `<head lang="en">`+RegistrationSnippet) {
		t.Fatalf("attributed head mishandled: %s", out)
	}
}

func TestInjectSkipsHeaderElement(t *testing.T) {
	// <header> must not be mistaken for <head>.
	in := `<html><body><header>nav</header></body></html>`
	out := InjectRegistration(in)
	if !strings.HasPrefix(out, RegistrationSnippet) {
		t.Fatalf("no-head document should get snippet prepended: %s", out)
	}
	if strings.Contains(out, "<header>"+RegistrationSnippet) {
		t.Fatal("snippet injected inside <header>")
	}
}

func TestInjectNoHead(t *testing.T) {
	out := InjectRegistration(`<p>bare</p>`)
	if !strings.HasPrefix(out, RegistrationSnippet) {
		t.Fatalf("got %s", out)
	}
}

func TestInjectIdempotent(t *testing.T) {
	in := `<html><head></head></html>`
	once := InjectRegistration(in)
	twice := InjectRegistration(once)
	if once != twice {
		t.Fatal("injection not idempotent")
	}
	if strings.Count(twice, RegistrationSnippet) != 1 {
		t.Fatal("snippet duplicated")
	}
}

func TestInjectUppercaseHead(t *testing.T) {
	out := InjectRegistration(`<HTML><HEAD></HEAD></HTML>`)
	if !strings.Contains(out, "<HEAD>"+RegistrationSnippet) {
		t.Fatalf("uppercase head missed: %s", out)
	}
}

// TestInjectOffsetIsIntoTheDocument pins the head search to indexes of the
// document itself. Lowercasing a copy changes byte lengths — U+0130 grows
// 2 → 3, U+212A shrinks 3 → 1, an invalid byte becomes three — so an offset
// found in the copy lands before or after the real tag end.
func TestInjectOffsetIsIntoTheDocument(t *testing.T) {
	for _, prefix := range []string{
		"", "<!-- \u0130stanbul -->", "<!-- 273 \u212a \u212a \u212a -->", "<!-- \xff\xfe\xfd -->",
		"<html lang=tr title='\u0130\u0130\u0130\u0130\u0130\u0130\u0130\u0130'>",
	} {
		for _, head := range []string{"<head>", "<HEAD>", "<hEaD\tdata-\u212a='\u0130'>", "<head\n>"} {
			in := prefix + "<header>x</header>" + head + "<title>T</title></head><body>\u0130</body>"
			want := prefix + "<header>x</header>" + head + RegistrationSnippet + "<title>T</title></head><body>\u0130</body>"
			if out := InjectRegistration(in); out != want {
				t.Errorf("prefix %q head %q:\n got %q\nwant %q", prefix, head, out, want)
			}
			at, gap := RegistrationOffset(in)
			if at != len(prefix)+len("<header>x</header>")+len(head) || gap != len(RegistrationSnippet) {
				t.Errorf("prefix %q head %q: offset (%d, %d)", prefix, head, at, gap)
			}
		}
	}
	// Not a head: the fold is ASCII-only (U+212A KELVIN SIGN folds to 'k',
	// nothing folds into "head"), and a tag cut off by the end of input has
	// no end to insert after.
	for _, in := range []string{"<he\u0430d>", "<head", "<hea", "<", "<headless>", "<\u212aead>"} {
		if at, gap := RegistrationOffset(in); at != 0 || gap != len(RegistrationSnippet) {
			t.Errorf("%q: offset (%d, %d), want a prepend", in, at, gap)
		}
	}
	if at, gap := RegistrationOffset("<head>" + RegistrationSnippet); at != 0 || gap != 0 {
		t.Errorf("snippet present: offset (%d, %d), want (0, 0)", at, gap)
	}
}

func TestInjectedDocumentStillParses(t *testing.T) {
	in := `<html><head><link rel="stylesheet" href="a.css"></head><body><img src="b.png"></body></html>`
	out := InjectRegistration(in)
	rs := htmlparse.ExtractFromHTML(out)
	urls := map[string]bool{}
	for _, r := range rs {
		urls[r.URL] = true
	}
	if !urls["a.css"] || !urls["b.png"] {
		t.Fatalf("injection broke resource extraction: %v", urls)
	}
	// The snippet itself is inline (no src) and must not add a resource.
	if len(rs) != 2 {
		t.Fatalf("snippet added resources: %v", rs)
	}
}

func TestRegistrationSnippetReferencesWellKnownPath(t *testing.T) {
	if !strings.Contains(RegistrationSnippet, ServiceWorkerPath) {
		t.Fatal("snippet does not register the well-known SW path")
	}
}

func TestServiceWorkerScriptMentionsHeader(t *testing.T) {
	if !strings.Contains(ServiceWorkerScript, HeaderName) {
		t.Fatal("SW script does not read the X-Etag-Config header")
	}
}

// Property: injection always yields a document that contains the snippet
// exactly once and retains the original content.
func TestInjectQuick(t *testing.T) {
	f := func(body string) bool {
		out := InjectRegistration(body)
		if strings.Count(out, RegistrationSnippet) < 1 {
			return false
		}
		// Original content preserved (snippet removal restores input).
		return strings.Replace(out, RegistrationSnippet, "", 1) == body
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestServiceWorkerScriptHonorsNoStore runs the shipped script under node
// with a Map-backed caches, a stub fetch and plain-object requests: a
// response whose Cache-Control lists no-store anywhere must not be stored
// (it would later be replayed with zero round trips), anything else is. The
// same harness then delivers a good map, then a navigation whose
// X-Etag-Config does not parse: the worker keeps the good map (PROTOCOL.md
// §2.4), so the subresource it names is still served from cache. Last, tags
// match as PROTOCOL.md §4 step 1 and core.Decide have it: a weak map tag
// vouches for a cached copy with the same opaque tag, strong or weak, and a
// strong map tag only for the identical strong tag.
func TestServiceWorkerScriptHonorsNoStore(t *testing.T) {
	node, err := exec.LookPath("node")
	if err != nil {
		t.Skip("SKIPPED, NOT PASSED: node is not on PATH, so the Service Worker script's no-store and malformed-map handling went unchecked")
	}
	const harness = `
const stored = new Map();
let cacheControl = "";
let respEtag = '"v1"';
let etagConfig = null;
let fetches = 0;
let onFetch;
globalThis.self = {
  location: { origin: "https://site.example" },
  clients: { claim() {} },
  skipWaiting() {},
  addEventListener(type, fn) { if (type === "fetch") onFetch = fn; },
};
globalThis.caches = {
  open: async () => ({
    match: async (req) => stored.get(req.url),
    put: async (req, resp) => { stored.set(req.url, resp); },
  }),
};
globalThis.fetch = async () => {
  fetches++;
  const headers = { "cache-control": cacheControl, etag: respEtag, "x-etag-config": etagConfig };
  const resp = { ok: true, headers: { get: (name) => headers[name.toLowerCase()] || null }, clone: () => resp };
  return resp;
};
(0, eval)(require("fs").readFileSync(0, "utf8"));
async function dispatch(mode, url) {
  let done;
  onFetch({ request: { method: "GET", mode, url }, respondWith(p) { done = p; } });
  await done;
}
(async () => {
  const out = { noStore: {} };
  for (const cc of JSON.parse(process.argv[1])) {
    cacheControl = cc;
    const url = "https://site.example/r?cc=" + encodeURIComponent(cc);
    await dispatch("no-cors", url);
    out.noStore[cc] = stored.has(url);
  }
  cacheControl = "max-age=60";
  await dispatch("no-cors", "https://site.example/app.js");
  etagConfig = JSON.stringify({ "/app.js": '"v1"' });
  await dispatch("navigate", "https://site.example/");
  etagConfig = '{"/app.js": "\\"v1\\"';
  await dispatch("navigate", "https://site.example/");
  etagConfig = null;
  const before = fetches;
  await dispatch("no-cors", "https://site.example/app.js");
  out.servedFromCacheAfterBadMap = fetches === before;
  out.servedFromCache = {};
  for (const [name, mapTag, cachedTag] of [["weakMapStrongCopy", 'W/"x"', '"x"'], ["strongMapWeakCopy", '"x"', 'W/"x"']]) {
    const path = "/" + name + ".css";
    respEtag = cachedTag;
    await dispatch("no-cors", "https://site.example" + path);
    etagConfig = JSON.stringify({ [path]: mapTag });
    await dispatch("navigate", "https://site.example/");
    etagConfig = null;
    const before = fetches;
    await dispatch("no-cors", "https://site.example" + path);
    out.servedFromCache[name] = fetches === before;
  }
  console.log(JSON.stringify(out));
})();
`
	want := map[string]bool{
		"no-store":          false,
		"no-store, private": false,
		"private, No-Store": false,
		"max-age=60":        true,
	}
	var values []string
	for cc := range want {
		values = append(values, cc)
	}
	arg, _ := json.Marshal(values)
	cmd := exec.Command(node, "-e", harness, string(arg))
	cmd.Stdin = strings.NewReader(ServiceWorkerScript)
	outBytes, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("node: %v\n%s", err, outBytes)
	}
	var got struct {
		NoStore                    map[string]bool
		ServedFromCacheAfterBadMap bool
		ServedFromCache            map[string]bool
	}
	if err := json.Unmarshal(outBytes, &got); err != nil {
		t.Fatalf("harness output %q: %v", outBytes, err)
	}
	for cc, stored := range want {
		if g, ok := got.NoStore[cc]; !ok || g != stored {
			t.Errorf("Cache-Control %q: stored = %v (reported %v), want %v", cc, g, ok, stored)
		}
	}
	if !got.ServedFromCacheAfterBadMap {
		t.Error("a navigation with a malformed X-Etag-Config erased the good map: the subresource it names went to the network")
	}
	for name, want := range map[string]bool{"weakMapStrongCopy": true, "strongMapWeakCopy": false} {
		if g, ok := got.ServedFromCache[name]; !ok || g != want {
			t.Errorf("%s: served from cache = %v (reported %v), want %v", name, g, ok, want)
		}
	}
}
