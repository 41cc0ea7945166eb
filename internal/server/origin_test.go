package server_test

import (
	"fmt"
	"net/http"
	"reflect"
	"sort"
	"strings"
	"testing"

	"cachecatalyst/catalyst"
	"cachecatalyst/internal/core"
	"cachecatalyst/internal/netsim"
	"cachecatalyst/internal/server"
	"cachecatalyst/internal/vclock"
)

// fingerprint is h's sorted keys and values, one line each.
func fingerprint(h http.Header) string {
	lines := make([]string, 0, len(h))
	for k, vs := range h {
		lines = append(lines, fmt.Sprintf("%s: %q", k, vs))
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// TestOriginLeavesRequestHeaderAlone: NewOrigin hands the Server the
// simulated request's own header map, which is sound only because a Server
// never writes a request header. Over every kind of exchange a recording
// catalyst server answers — a page (a 200, then a 304 on
// If-None-Match), a stylesheet, a 404 and the worker script — the Server
// must see the caller's map itself and leave it as it was sent.
func TestOriginLeavesRequestHeaderAlone(t *testing.T) {
	srv := catalyst.Middleware(server.New(server.BuildSite(), server.Options{Record: true, Clock: vclock.NewVirtual(vclock.Epoch)}), catalyst.MiddlewareOptions{})
	origin := server.NewOrigin(srv)
	var seen http.Header
	*server.OriginHandler(origin) = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		seen = r.Header
		srv.ServeHTTP(w, r)
	})
	adapter := origin

	send := func(path string, status int, hdr map[string]string) {
		t.Helper()
		h := http.Header{"Referer": {"https://example.com/index.html"}, "Cookie": {server.SessionCookie + "=s1"}}
		for k, v := range hdr {
			h.Set(k, v)
		}
		before := fingerprint(h)
		resp := adapter.RoundTrip(&netsim.Request{Method: "GET", Path: path, Header: h})
		if resp.StatusCode != status {
			t.Fatalf("GET %s: status %d, want %d", path, resp.StatusCode, status)
		}
		if reflect.ValueOf(seen).Pointer() != reflect.ValueOf(h).Pointer() {
			t.Errorf("GET %s: the Server saw a copy of the request header, want the caller's map", path)
		}
		if after := fingerprint(h); after != before {
			t.Errorf("GET %s (%d): the request header changed\nsent:\n%s\nafter:\n%s", path, status, before, after)
		}
	}

	// A nil header reaches the Server as an empty map.
	page := adapter.RoundTrip(&netsim.Request{Method: "GET", Path: "/index.html"})
	if seen == nil {
		t.Error("a request sent without a header reached the Server with a nil one")
	}
	tag := page.Header.Get("Etag")
	if tag == "" {
		t.Fatal("page served without a validator")
	}
	send("/index.html", http.StatusOK, nil)
	send("/index.html", http.StatusNotModified, map[string]string{"If-None-Match": tag})
	send("/a.css", http.StatusOK, nil)
	send("/missing.css", http.StatusNotFound, nil)
	send(core.ServiceWorkerPath, http.StatusOK, nil)
}
