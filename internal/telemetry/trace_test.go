package telemetry

import (
	"context"
	"net/http"
	"reflect"
	"sync"
	"testing"
)

func TestEventWithoutTraceIsNoOp(t *testing.T) {
	// Must not panic, must not allocate a trace.
	Event(context.Background(), "network", "/x")
	ctx, span := BeginSpan(context.Background(), "load")
	span.End()
	if _, ok := TraceFrom(ctx); ok {
		t.Fatal("BeginSpan invented a trace")
	}
}

func TestTraceRecordsEventsAndSpans(t *testing.T) {
	ctx, tr := StartTrace(context.Background(), "req-1")
	if tr.ID != "req-1" {
		t.Fatalf("id = %q", tr.ID)
	}
	ctx2, load := BeginSpan(ctx, "load")
	Event(ctx2, "network", "/index.html")
	ctx3, fetch := BeginSpan(ctx2, "fetch")
	Event(ctx3, "sw-hit", "/a.css")
	fetch.End()
	load.End()

	evs := tr.Events()
	if len(evs) != 2 {
		t.Fatalf("events = %+v", evs)
	}
	if evs[0].Span != "load" || evs[0].Name != "network" {
		t.Fatalf("event 0 = %+v", evs[0])
	}
	if evs[1].Span != "load.fetch" || evs[1].Detail != "/a.css" {
		t.Fatalf("event 1 = %+v", evs[1])
	}
	spans := tr.Spans()
	if len(spans) != 2 || spans[0].Path != "load.fetch" || spans[1].Path != "load" {
		t.Fatalf("spans = %+v", spans)
	}
	if spans[0].End < spans[0].Start {
		t.Fatalf("span ends before it starts: %+v", spans[0])
	}
}

func TestStartTraceReusesExisting(t *testing.T) {
	ctx, tr1 := StartTrace(context.Background(), "")
	if tr1.ID == "" {
		t.Fatal("generated ID empty")
	}
	_, tr2 := StartTrace(ctx, "other")
	if tr1 != tr2 {
		t.Fatal("StartTrace replaced an existing trace")
	}
}

func TestDecisionsCollapsesRuns(t *testing.T) {
	ctx, tr := StartTrace(context.Background(), "")
	Event(ctx, "probe", "/a.css")
	Event(ctx, "probe", "/b.js")
	Event(ctx, "etag-match", "/a.css")
	Event(ctx, "probe", "/c.js")
	got := tr.Decisions()
	want := []string{"probe", "etag-match", "probe"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("decisions = %v, want %v", got, want)
	}
}

func TestTraceConcurrentRecording(t *testing.T) {
	ctx, tr := StartTrace(context.Background(), "")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				Event(ctx, "probe", "/x")
				_, span := BeginSpan(ctx, "s")
				span.End()
			}
		}()
	}
	wg.Wait()
	if got := len(tr.Events()); got != 1600 {
		t.Fatalf("events = %d, want 1600", got)
	}
	if got := len(tr.Spans()); got != 1600 {
		t.Fatalf("spans = %d, want 1600", got)
	}
}

func TestServerTimingRoundTrip(t *testing.T) {
	h := make(http.Header)
	AppendServerTiming(h, "map-built", "network")
	AppendServerTiming(h, "etag-match")
	AppendServerTiming(h) // no-op
	got := ParseServerTiming(h.Get(ServerTimingHeader))
	want := []string{"map-built", "network", "etag-match"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("parsed = %v, want %v", got, want)
	}
	if ParseServerTiming("") != nil {
		t.Fatal("empty header should parse to nil")
	}
	// Parameters are dropped, like real Server-Timing metrics carry.
	got = ParseServerTiming(`cache;dur=0.2, net;desc="origin fetch"`)
	want = []string{"cache", "net"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("parsed = %v, want %v", got, want)
	}
}

func TestNextRequestIDUnique(t *testing.T) {
	a, b := NextRequestID(), NextRequestID()
	if a == b || a == "" {
		t.Fatalf("ids %q, %q", a, b)
	}
}
