package server

import (
	"fmt"
	"testing"

	"cachecatalyst/internal/telemetry"
)

func TestAccessLogRingWraps(t *testing.T) {
	s := New(buildSite(), Options{AccessLogSize: 3})
	for i := 0; i < 5; i++ {
		get(t, s, fmt.Sprintf("/a.css?i=%d", i), nil)
	}
	entries := s.RecentRequests()
	if len(entries) != 3 {
		t.Fatalf("entries = %d", len(entries))
	}
	// Oldest-first: i=2, 3, 4 survive. The access log records Path only
	// (no query), so check order via the ring behaviour instead.
	if entries[0].Time.After(entries[2].Time) {
		t.Fatal("entries not oldest-first")
	}
}

func TestAccessLogDisabled(t *testing.T) {
	reg := telemetry.NewRegistry()
	s := New(buildSite(), Options{Telemetry: reg})
	get(t, s, "/a.css", nil)
	if s.RecentRequests() != nil {
		t.Fatal("access log active without opt-in")
	}
	if n := reg.Snapshot().Counters["server.requests"]; n != 1 {
		t.Fatalf("server.requests = %d", n)
	}
}
