package browser

import (
	"context"
	"net/http"
	"reflect"
	"strings"
	"testing"
	"time"

	"cachecatalyst/internal/httpcache"
	"cachecatalyst/internal/netsim"
	"cachecatalyst/internal/server"
	"cachecatalyst/internal/telemetry"
	"cachecatalyst/internal/vclock"
)

// timedWorld is newWorld with Server-Timing enabled, so the origin mirrors
// its cache decisions back to the client.
func timedWorld(catalyst bool) *world {
	w := &world{clock: vclock.NewVirtual(vclock.Epoch), content: figure1Site()}
	w.srv = server.New(w.content, server.Options{
		Catalyst: catalyst, Record: catalyst, Clock: w.clock, ServerTiming: true,
	})
	w.origins = OriginMap{"site.example": server.NewOrigin(w.srv)}
	return w
}

// decisionsByPath loads the page with ctx and returns each fetch's
// decisions by path.
func decisionsByPath(ctx context.Context, b *Browser, w *world, t *testing.T) (map[string][]string, LoadResult) {
	t.Helper()
	byPath := make(map[string][]string)
	b.OnFetch = func(ev FetchEvent) { byPath[ev.Path] = ev.Decisions }
	defer func() { b.OnFetch = nil }()
	res, err := b.LoadContext(ctx, w.origins, cond40ms(), "site.example", "/index.html")
	if err != nil {
		t.Fatal(err)
	}
	return byPath, res
}

// TestLoadTraceEndToEnd exercises the full telemetry spine: the Catalyst
// warm revisit, traced by its caller, must surface SW hits, the client's
// revalidation, and — via Server-Timing — the origin's own decisions, on
// both the FetchEvents and the load's trace.
func TestLoadTraceEndToEnd(t *testing.T) {
	w := timedWorld(true)
	b := New(w.clock, Catalyst, netsim.TransportOptions{})
	mustLoad(t, b, w) // cold visit warms the SW
	w.clock.Advance(2 * time.Hour)

	ctx, _ := telemetry.StartTrace(context.Background(), "")
	byPath, res := decisionsByPath(ctx, b, w, t)

	if res.Trace == nil {
		t.Fatal("LoadResult.Trace is nil")
	}
	nav := strings.Join(byPath["/index.html"], " ")
	for _, want := range []string{"revalidate", "etag-match", "origin:etag-match"} {
		if !strings.Contains(nav, want) {
			t.Errorf("navigation decisions %q missing %q", nav, want)
		}
	}
	for _, sub := range []string{"/a.css", "/c.js"} {
		if got := strings.Join(byPath[sub], " "); got != "sw-hit" {
			t.Errorf("%s decisions = %q, want \"sw-hit\"", sub, got)
		}
	}
	all := strings.Join(res.Trace.Decisions(), " ")
	for _, want := range []string{"sw-hit", "revalidate", "etag-match"} {
		if !strings.Contains(all, want) {
			t.Errorf("trace decisions %q missing %q", all, want)
		}
	}
	if len(res.Trace.Spans()) == 0 {
		t.Error("trace has no spans; LoadContext should record a load span")
	}
}

// TestLoadContextReusesCallerTrace checks one-navigation-one-trace: a trace
// already on the context is adopted, not replaced.
func TestLoadContextReusesCallerTrace(t *testing.T) {
	w := timedWorld(false)
	b := New(w.clock, Conventional, netsim.TransportOptions{})
	ctx, tr := telemetry.StartTrace(context.Background(), "r-fixed")
	res, err := b.LoadContext(ctx, w.origins, cond40ms(), "site.example", "/index.html")
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace != tr {
		t.Fatalf("LoadResult.Trace = %v, want the caller's trace %v", res.Trace, tr)
	}
	if res.Trace.ID != "r-fixed" {
		t.Errorf("trace ID = %q, want %q", res.Trace.ID, "r-fixed")
	}
	if len(tr.Events()) == 0 {
		t.Error("caller trace recorded no events")
	}
}

// headerLog is an Origin that records the header of every request it
// forwards.
type headerLog struct {
	inner netsim.Origin
	sent  []http.Header
}

func (o *headerLog) RoundTrip(req *netsim.Request) *httpcache.Response {
	o.sent = append(o.sent, req.Header.Clone())
	return o.inner.RoundTrip(req)
}

// TestLoadWithoutTraceRecordsNothing pins the trace contract: a load whose
// caller passes no trace starts none — LoadResult.Trace is nil and no
// request carries X-Request-Id — and makes the same decisions, as OnFetch
// reports them, as the same load made with a trace. Two identical worlds
// load cold and again after two hours, one untraced and one traced.
func TestLoadWithoutTraceRecordsNothing(t *testing.T) {
	type run struct {
		w   *world
		b   *Browser
		log *headerLog
	}
	var runs [2]run // untraced, traced
	for i := range runs {
		w := timedWorld(true)
		log := &headerLog{inner: w.origins["site.example"]}
		w.origins["site.example"] = log
		runs[i] = run{w, New(w.clock, Catalyst, netsim.TransportOptions{}), log}
	}
	for _, visit := range []string{"cold", "warm"} {
		var got [2]map[string][]string
		for i, r := range runs {
			traced := i == 1
			if visit == "warm" {
				r.w.clock.Advance(2 * time.Hour)
			}
			ctx := context.Background()
			if traced {
				ctx, _ = telemetry.StartTrace(ctx, "")
			}
			r.log.sent = nil
			byPath, res := decisionsByPath(ctx, r.b, r.w, t)
			got[i] = byPath
			ids := 0
			for _, h := range r.log.sent {
				if h.Get(telemetry.RequestIDHeader) != "" {
					ids++
				}
			}
			switch {
			case len(r.log.sent) == 0:
				t.Fatalf("%s load (traced %v) sent no request", visit, traced)
			case traced && (res.Trace == nil || ids != len(r.log.sent)):
				t.Errorf("%s traced load: trace %v, %d of %d requests carry %s; want the caller's trace, on every request",
					visit, res.Trace, ids, len(r.log.sent), telemetry.RequestIDHeader)
			case !traced && (res.Trace != nil || ids != 0):
				t.Errorf("%s untraced load: trace %v, %d of %d requests carry %s; want no trace and no ID",
					visit, res.Trace, ids, len(r.log.sent), telemetry.RequestIDHeader)
			}
		}
		if !reflect.DeepEqual(got[0], got[1]) {
			t.Errorf("%s load decisions differ:\nuntraced %v\ntraced   %v", visit, got[0], got[1])
		}
	}
}

// TestConventionalRevisitDecisions covers the non-Catalyst path: fresh
// cache hits and timestamp/ETag revalidations annotate their events.
func TestConventionalRevisitDecisions(t *testing.T) {
	w := timedWorld(false)
	b := New(w.clock, Conventional, netsim.TransportOptions{})
	mustLoad(t, b, w)
	w.clock.Advance(2 * time.Hour)

	byPath, _ := decisionsByPath(context.Background(), b, w, t)

	if got := strings.Join(byPath["/a.css"], " "); got != "cache" {
		t.Errorf("/a.css decisions = %q, want \"cache\"", got)
	}
	nav := strings.Join(byPath["/index.html"], " ")
	if !strings.Contains(nav, "revalidate") || !strings.Contains(nav, "etag-match") {
		t.Errorf("navigation decisions = %q, want revalidate + etag-match", nav)
	}
}
