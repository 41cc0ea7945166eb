package core

import "strings"

// RegistrationSnippet is the inline script the server injects into every
// HTML page so that first-time visitors install the CacheCatalyst Service
// Worker (§3: "the web server also inserts the registration code of the
// Service Worker in the HTML file").
const RegistrationSnippet = `<script>if("serviceWorker" in navigator){navigator.serviceWorker.register("` + ServiceWorkerPath + `")}</script>`

// InjectRegistration inserts the Service-Worker registration snippet into an
// HTML document: immediately after the opening <head> tag when present,
// otherwise prepended. Documents that already contain the snippet are
// returned unchanged, so re-serving rewritten content is idempotent.
func InjectRegistration(htmlBody string) string {
	at, gap := RegistrationOffset(htmlBody)
	if gap == 0 {
		return htmlBody
	}
	return htmlBody[:at] + RegistrationSnippet + htmlBody[at:]
}

// RegistrationOffset reports the insertion InjectRegistration makes into
// htmlBody: gap bytes of RegistrationSnippet at byte offset at. gap is
// len(RegistrationSnippet), or 0 (with at 0) for a document that already
// contains the snippet. Callers assembling the injected document themselves
// get the decomposition "input == output[:at] + output[at+gap:]" for free.
func RegistrationOffset(htmlBody string) (at, gap int) {
	if strings.Contains(htmlBody, RegistrationSnippet) {
		return 0, 0
	}
	if at = indexAfterHeadOpen(htmlBody); at < 0 {
		at = 0
	}
	return at, len(RegistrationSnippet)
}

// indexAfterHeadOpen returns the byte offset just past the opening <head...>
// tag, or -1 when the document has none. It scans s itself, folding case
// four bytes at a time (no non-ASCII rune folds to a letter of "head"), so
// every index is an index into s; lowercasing a copy first changes byte
// lengths (U+0130, U+212A, invalid UTF-8) and shifts the offset on
// documents that carry such bytes before <head>.
func indexAfterHeadOpen(s string) int {
	for from := 0; ; {
		i := strings.IndexByte(s[from:], '<')
		if i < 0 {
			return -1
		}
		i += from
		after := i + len("<head")
		if after > len(s) {
			return -1
		}
		from = i + 1
		if !strings.EqualFold(s[from:after], "head") {
			continue
		}
		if after < len(s) {
			switch s[after] {
			case '>', ' ', '\t', '\n', '\r':
			default:
				continue // e.g. <header>
			}
		}
		end := strings.IndexByte(s[after:], '>')
		if end < 0 {
			return -1
		}
		return after + end + 1
	}
}

// ServiceWorkerScript is the JavaScript Service Worker a real browser would
// run. The Go emulation in internal/sw implements the same algorithm; this
// script exists so cmd/catalystd serves a genuinely deployable artifact and
// documents the client contract in executable form.
const ServiceWorkerScript = `// CacheCatalyst Service Worker.
// Serves cached same-origin subresources without revalidation round trips
// by honoring the X-Etag-Config map delivered with each navigation.
const CACHE = "cachecatalyst-v1";
let etagConfig = {};

self.addEventListener("install", (e) => self.skipWaiting());
self.addEventListener("activate", (e) => e.waitUntil(self.clients.claim()));

async function handleNavigation(request) {
  const resp = await fetch(request);
  const cfg = resp.headers.get("X-Etag-Config");
  if (cfg) {
    // A map that does not parse is ignored, the previous one kept
    // (PROTOCOL.md section 2.4).
    try { etagConfig = JSON.parse(cfg); } catch (_) {}
  }
  return resp;
}

// no-store anywhere in the Cache-Control directive list forbids storing
// (PROTOCOL.md section 4 step 3), whatever else the list carries.
function noStore(cacheControl) {
  return (cacheControl || "").split(",").some(
    (d) => d.split("=")[0].trim().toLowerCase() === "no-store");
}

// The map's tag vouches for the cached copy's (PROTOCOL.md section 4 step 1):
// a weak map tag matches any tag with the same opaque value, a strong one only
// the identical strong tag.
function tagMatches(want, have) {
  const opaque = (t) => t.replace(/^W\//, "");
  return want.startsWith("W/") ? opaque(want) === opaque(have) : want === have;
}

async function handleSubresource(request) {
  const url = new URL(request.url);
  const key = url.pathname + url.search;
  const cache = await caches.open(CACHE);
  const cached = await cache.match(request);
  if (cached) {
    const have = cached.headers.get("ETag");
    const want = etagConfig[key];
    if (have && typeof want === "string" && tagMatches(want, have)) {
      return cached; // zero network round trips
    }
  }
  const resp = await fetch(request);
  if (resp.ok && !noStore(resp.headers.get("Cache-Control"))) {
    cache.put(request, resp.clone());
  }
  return resp;
}

self.addEventListener("fetch", (event) => {
  const request = event.request;
  if (request.method !== "GET") return;
  if (new URL(request.url).origin !== self.location.origin) return;
  if (request.mode === "navigate") {
    event.respondWith(handleNavigation(request));
  } else {
    event.respondWith(handleSubresource(request));
  }
});
`
