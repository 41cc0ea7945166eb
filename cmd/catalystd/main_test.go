package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"cachecatalyst/catalyst"
	"cachecatalyst/internal/telemetry"
)

func testOpts() daemonOptions {
	return daemonOptions{Dir: ".", MaxInflight: 16}
}

// originServer is a minimal upstream: an HTML page referencing a
// stylesheet, tagged so tests can tell upstreams apart.
func originServer(t *testing.T, name string) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case strings.HasSuffix(r.URL.Path, ".css"):
			w.Header().Set("Content-Type", "text/css")
			fmt.Fprintf(w, "/* %s */ body{}", name)
		default:
			w.Header().Set("Content-Type", "text/html")
			fmt.Fprintf(w, `<html><head><link rel="stylesheet" href="/app.css"></head><body>%s</body></html>`, name)
		}
	}))
	t.Cleanup(srv.Close)
	return srv
}

func get(h http.Handler, host, path string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodGet, "http://"+host+path, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// TestBuildHandlerPlainMode pins that -plain serves files with
// conventional caching: no X-Etag-Config, bodies intact.
func TestBuildHandlerPlainMode(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "index.html"), []byte("<html><body>hi</body></html>"), 0o644); err != nil {
		t.Fatal(err)
	}
	opts := testOpts()
	opts.Dir = dir
	opts.Plain = true
	built, err := buildHandler(opts, telemetry.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	rec := get(built.Handler, "site.test", "/index.html")
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), "hi") {
		t.Fatalf("plain serve failed: %d %q", rec.Code, rec.Body.String())
	}
	if rec.Header().Get(catalyst.HeaderName) != "" {
		t.Fatal("plain mode emitted X-Etag-Config")
	}
}

// TestBuildHandlerServeMode pins the default mode: files served with the
// mechanism enabled.
func TestBuildHandlerServeMode(t *testing.T) {
	dir := t.TempDir()
	for name, body := range map[string]string{
		"index.html": `<html><head><link rel="stylesheet" href="/app.css"></head><body>hi</body></html>`,
		"app.css":    "body{}",
	} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	opts := testOpts()
	opts.Dir = dir
	built, err := buildHandler(opts, telemetry.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	rec := get(built.Handler, "site.test", "/index.html")
	if rec.Code != 200 || rec.Header().Get(catalyst.HeaderName) == "" {
		t.Fatalf("catalyst serve mode missing map: %d %v", rec.Code, rec.Header())
	}
}

// TestBuildHandlerSingleTenantFallback pins that the pre-config -origin
// flag still works: one upstream, decorated responses, drain hook.
func TestBuildHandlerSingleTenantFallback(t *testing.T) {
	up := originServer(t, "solo")
	opts := testOpts()
	opts.Origin = up.URL
	opts.Metrics = true
	built, err := buildHandler(opts, telemetry.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	defer built.OnDrain()
	rec := get(built.Handler, "site.test", "/")
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), "solo") {
		t.Fatalf("proxy serve failed: %d %q", rec.Code, rec.Body.String())
	}
	if rec.Header().Get(catalyst.HeaderName) == "" {
		t.Fatal("proxied HTML missing X-Etag-Config")
	}
	// The unified metrics surface serves in proxy mode too (no
	// *server.Server behind it).
	mrec := get(built.Handler, "site.test", catalyst.MetricsPath)
	if mrec.Code != 200 {
		t.Fatalf("metrics path in proxy mode: %d", mrec.Code)
	}
	var payload struct {
		Config    map[string]any     `json:"config"`
		Telemetry telemetry.Snapshot `json:"telemetry"`
	}
	if err := json.Unmarshal(mrec.Body.Bytes(), &payload); err != nil {
		t.Fatalf("metrics payload: %v", err)
	}
	if payload.Config["maxInflight"] != float64(16) {
		t.Fatalf("config echo missing: %v", payload.Config)
	}
}

// TestParseFlags pins the flag-to-options mapping main starts from.
func TestParseFlags(t *testing.T) {
	opts, err := parseFlags([]string{"-addr", "127.0.0.1:0", "-origin", "http://app:3000", "-metrics", "-cache-budget", "1024", "-shutdown-timeout", "2s"}, &bytes.Buffer{})
	if err != nil {
		t.Fatal(err)
	}
	want := daemonOptions{Dir: ".", Addr: "127.0.0.1:0", Origin: "http://app:3000", Metrics: true, MaxInflight: 256,
		ShutdownTimeout: 2 * time.Second, CacheBudget: 1024, AccessLogSize: 256}
	if opts != want {
		t.Fatalf("parseFlags = %+v, want %+v", opts, want)
	}
}

// TestBuildHandlerRejects covers the refusal paths from the command line
// on: bad config file, malformed config JSON, conflicting flags, bad origin
// URL, missing dir, and a cache policy on the flag or in a tenant — there
// is one eviction order, so asking for one must stop the daemon, not be
// ignored.
func TestBuildHandlerRejects(t *testing.T) {
	badJSON := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(badJSON, []byte(`{"tenants": [{"name": "x"}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	retired := filepath.Join(t.TempDir(), "retired.json")
	if err := os.WriteFile(retired, []byte(`{"tenants": [{"name": "x", "upstream": "http://127.0.0.1:1", "cachePolicy": "gdsf"}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		args []string
	}{
		{"missing config file", []string{"-config", filepath.Join(t.TempDir(), "nope.json")}},
		{"config without upstream", []string{"-config", badJSON}},
		{"config and origin together", []string{"-config", badJSON, "-origin", "http://x"}},
		{"relative origin", []string{"-origin", "not-a-url"}},
		{"missing dir", []string{"-dir", filepath.Join(t.TempDir(), "nope")}},
		{"retired cache-policy flag", []string{"-cache-policy", "gdsf"}},
		{"retired tenant cachePolicy", []string{"-config", retired}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			opts, err := parseFlags(c.args, &bytes.Buffer{})
			if err == nil {
				_, err = buildHandler(opts, telemetry.NewRegistry())
			}
			if err == nil {
				t.Fatal("start-up accepted a bad configuration")
			}
		})
	}
}

// TestBuildHandlerMultiTenant pins the config mode end to end: two
// upstreams behind one daemon, routed by Host, isolated telemetry, the
// effective tenants echoed at the metrics path.
func TestBuildHandlerMultiTenant(t *testing.T) {
	upA := originServer(t, "alpha")
	upB := originServer(t, "beta")
	cfgPath := filepath.Join(t.TempDir(), "catalystd.json")
	cfg := fmt.Sprintf(`{
		"tenants": [
			{"name": "alpha", "upstream": %q, "hosts": ["alpha.test"], "healthInterval": "100ms"},
			{"name": "beta", "upstream": %q, "hosts": ["beta.test"], "cacheBudget": 1048576}
		]
	}`, upA.URL, upB.URL)
	if err := os.WriteFile(cfgPath, []byte(cfg), 0o644); err != nil {
		t.Fatal(err)
	}
	opts := testOpts()
	opts.ConfigPath = cfgPath
	opts.Metrics = true
	reg := telemetry.NewRegistry()
	built, err := buildHandler(opts, reg)
	if err != nil {
		t.Fatal(err)
	}
	defer built.OnDrain()

	ra := get(built.Handler, "alpha.test", "/")
	rb := get(built.Handler, "beta.test", "/")
	if !strings.Contains(ra.Body.String(), "alpha") || !strings.Contains(rb.Body.String(), "beta") {
		t.Fatalf("tenant routing crossed: alpha=%q beta=%q", ra.Body.String(), rb.Body.String())
	}
	if ra.Header().Get(catalyst.HeaderName) == rb.Header().Get(catalyst.HeaderName) {
		t.Fatal("tenants share an X-Etag-Config map")
	}
	// A host no tenant claims is refused, not served from someone's cache.
	if rec := get(built.Handler, "other.test", "/"); rec.Code != http.StatusMisdirectedRequest {
		t.Fatalf("unrouted host got %d, want 421", rec.Code)
	}

	snap := reg.Snapshot()
	if snap.Counters["tenant.alpha.requests"] != 1 || snap.Counters["tenant.beta.requests"] != 1 {
		t.Fatalf("per-tenant request counters wrong: %v", snap.Counters)
	}
	mrec := get(built.Handler, "alpha.test", catalyst.MetricsPath)
	var payload struct {
		Config struct {
			Tenants []struct {
				Name string `json:"name"`
			} `json:"tenants"`
		} `json:"config"`
	}
	if err := json.Unmarshal(mrec.Body.Bytes(), &payload); err != nil {
		t.Fatalf("metrics payload: %v", err)
	}
	if len(payload.Config.Tenants) != 2 {
		t.Fatalf("config echo dropped tenants: %s", mrec.Body.String())
	}
}
