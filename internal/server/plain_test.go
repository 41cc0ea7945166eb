package server

import (
	"context"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"cachecatalyst/internal/core"
	"cachecatalyst/internal/etag"
	"cachecatalyst/internal/telemetry"
)

func TestPreloadLinks(t *testing.T) {
	if links := preloadLinks(nil); len(links) != 0 {
		t.Fatalf("no refs must give no links: %q", links)
	}
	refs := []core.Ref{{Key: "/a.css", CSS: true}, {Key: "/b.png"}}
	for i := 0; i < 40; i++ {
		refs = append(refs, core.Ref{Key: "/img/" + strconv.Itoa(i)})
	}
	links := preloadLinks(refs)
	if len(links) != maxPreloadHints || cap(links) != len(links) {
		t.Fatalf("%d links (capacity %d), want the cap %d", len(links), cap(links), maxPreloadHints)
	}
	if links[0] != "</a.css>; rel=preload; as=style" || links[1] != "</b.png>; rel=preload; as=image" {
		t.Fatalf("link wire form: %q, %q", links[0], links[1])
	}
}

func TestServeWorkerScript(t *testing.T) {
	serve := func(method, inm string) (*httptest.ResponseRecorder, int, int) {
		r := httptest.NewRequest(method, core.ServiceWorkerPath, nil)
		if inm != "" {
			r.Header.Set("If-None-Match", inm)
		}
		rec := httptest.NewRecorder()
		status, n := ServeWorkerScript(rec, r)
		return rec, status, n
	}
	rec, status, n := serve(http.MethodGet, "")
	if status != 200 || rec.Code != 200 || rec.Body.String() != core.ServiceWorkerScript || n != len(core.ServiceWorkerScript) {
		t.Fatalf("GET: status %d/%d, %d bytes", status, rec.Code, n)
	}
	tag := rec.Header().Get("Etag")
	if tag != etag.ForBytes([]byte(core.ServiceWorkerScript)).String() ||
		rec.Header().Get("Cache-Control") != "no-cache" ||
		!strings.HasPrefix(rec.Header().Get("Content-Type"), "text/javascript") {
		t.Fatalf("GET headers: %v", rec.Header())
	}
	if rec, status, n := serve(http.MethodGet, tag); status != 304 || rec.Code != 304 || n != 0 || rec.Body.Len() != 0 || rec.Header().Get("Etag") != tag {
		t.Fatalf("revalidation: status %d/%d, %d bytes", status, rec.Code, rec.Body.Len())
	}
	if rec, status, n := serve(http.MethodHead, ""); status != 200 || n != 0 || rec.Body.Len() != 0 || rec.Header().Get("Etag") != tag {
		t.Fatalf("HEAD: status %d, %d bytes", status, rec.Body.Len())
	}
	if _, status, _ := serve(http.MethodGet, `"stale"`); status != 200 {
		t.Fatalf("mismatched validator: status %d", status)
	}
}

func TestWriteEntity(t *testing.T) {
	body := []byte("hello")
	for _, c := range []struct {
		method string
		clen   []string
		n      int
	}{
		{http.MethodGet, nil, 5},
		{http.MethodGet, []string{"5"}, 5},
		{http.MethodHead, nil, 0},
	} {
		rec := httptest.NewRecorder()
		n := WriteEntity(rec, httptest.NewRequest(c.method, "/", nil), body, c.clen)
		if n != c.n || rec.Code != 200 || rec.Body.Len() != c.n || rec.Header().Get("Content-Length") != "5" {
			t.Errorf("%s clen=%v: wrote %d, status %d, Content-Length %q", c.method, c.clen, n, rec.Code, rec.Header().Get("Content-Length"))
		}
	}
}

func TestPageURLAndContentTypes(t *testing.T) {
	if got := PageURL(httptest.NewRequest("GET", "/a/b?x=1&y=2", nil)); got != "/a/b?x=1&y=2" {
		t.Errorf("PageURL with query = %q", got)
	}
	if got := PageURL(httptest.NewRequest("GET", "/a/b", nil)); got != "/a/b" {
		t.Errorf("PageURL = %q", got)
	}
	if !IsHTML("text/html; charset=utf-8") || IsHTML("text/plain") || IsHTML("") {
		t.Error("IsHTML")
	}
}

func TestDecideMirrorsOnlyWhenAsked(t *testing.T) {
	ctx, trace := telemetry.StartTrace(context.Background(), "req")
	h := http.Header{}
	Decide(ctx, h, false, "map-built", "/p")
	if len(h) != 0 {
		t.Fatalf("decision mirrored without ServerTiming: %v", h)
	}
	h.Set(telemetry.ServerTimingHeader, "origin")
	Decide(ctx, h, true, "etag-match", "/p")
	if got := trace.Decisions(); !reflect.DeepEqual(got, []string{"map-built", "etag-match"}) {
		t.Fatalf("trace decisions = %v", got)
	}
	if got := telemetry.ParseServerTiming(h.Get(telemetry.ServerTimingHeader)); !reflect.DeepEqual(got, []string{"origin", "etag-match"}) {
		t.Fatalf("Server-Timing = %v", got)
	}
}
