package tenant

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"cachecatalyst/internal/telemetry"
)

func TestResolverRouting(t *testing.T) {
	shop := &Tenant{Name: "shop", Hosts: []string{"shop.example.com"}, PathPrefix: "/shop/"}
	api := &Tenant{Name: "api", PathPrefix: "/shop/api/"}
	docs := &Tenant{Name: "docs", Hosts: []string{"Docs.Example.com:8443", "[::1]"}}
	def := &Tenant{Name: "default"}
	r, err := NewResolver([]*Tenant{shop, api, docs, def})
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		host, path string
		want       *Tenant
	}{
		{"shop.example.com", "/anything", shop},    // host rule
		{"shop.example.com:8080", "/x", shop},      // port stripped
		{"SHOP.EXAMPLE.COM", "/x", shop},           // case-insensitive
		{"docs.example.com", "/shop/api/v1", docs}, // host wins over prefix
		{"[::1]:9090", "/x", docs},                 // bracketed IPv6 with port
		{"::1", "/x", docs},                        // bare IPv6
		{"other.example.com", "/shop/api/v1", api}, // longest prefix wins
		{"other.example.com", "/shop/cart", shop},  // shorter prefix
		{"other.example.com", "/unmatched", def},   // catch-all
	}
	for _, c := range cases {
		if got := r.Resolve(c.host, c.path); got != c.want {
			name := "<nil>"
			if got != nil {
				name = got.Name
			}
			t.Errorf("Resolve(%q, %q) = %s, want %s", c.host, c.path, name, c.want.Name)
		}
	}

	if got, ok := r.Lookup("api"); !ok || got != api {
		t.Fatalf("Lookup(api) = %v, %v", got, ok)
	}
	if _, ok := r.Lookup("ghost"); ok {
		t.Fatal("Lookup(ghost) succeeded")
	}
}

func TestResolverNoDefault(t *testing.T) {
	r, err := NewResolver([]*Tenant{{Name: "a", Hosts: []string{"a.test"}}})
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Resolve("b.test", "/"); got != nil {
		t.Fatalf("Resolve with no default = %v, want nil", got.Name)
	}
}

func TestResolverRejects(t *testing.T) {
	cases := []struct {
		name    string
		tenants []*Tenant
		want    string
	}{
		{"none", nil, "no tenants"},
		{"dup name", []*Tenant{{Name: "a"}, {Name: "a", Hosts: []string{"a.test"}}}, "duplicate name"},
		{"dup host", []*Tenant{
			{Name: "a", Hosts: []string{"x.test"}},
			{Name: "b", Hosts: []string{"X.test:80"}},
		}, "already routes"},
		{"dup prefix", []*Tenant{
			{Name: "a", PathPrefix: "/p/"},
			{Name: "b", PathPrefix: "/p/"},
		}, "already routes"},
		{"two defaults", []*Tenant{{Name: "a"}, {Name: "b"}}, "catch-all"},
		{"bad name", []*Tenant{{Name: "a.b"}}, "must not contain"},
		{"bad upstream", []*Tenant{{Name: "a", Upstream: "not a url", Hosts: []string{"a.test"}}}, "absolute URL"},
		{"bad prefix", []*Tenant{{Name: "a", PathPrefix: "p/"}}, "must start with /"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := NewResolver(c.tenants)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("err = %v, want substring %q", err, c.want)
			}
		})
	}
}

func TestContextRoundTrip(t *testing.T) {
	req := httptest.NewRequest("GET", "/", nil)
	if _, ok := FromContext(req.Context()); ok {
		t.Fatal("fresh context carries a tenant")
	}
	want := &Tenant{Name: "t"}
	ctx := NewContext(req.Context(), want)
	if got, ok := FromContext(ctx); !ok || got != want {
		t.Fatalf("FromContext = %v, %v", got, ok)
	}
}

func TestHandler(t *testing.T) {
	a := &Tenant{Name: "a", Hosts: []string{"a.test"}}
	r, err := NewResolver([]*Tenant{a})
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	var seen *Tenant
	var seenOK bool
	h := Handler(r, reg, http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		seen, seenOK = FromContext(req.Context())
	}))

	req := httptest.NewRequest("GET", "http://a.test/x", nil)
	h.ServeHTTP(httptest.NewRecorder(), req)
	if !seenOK || seen != a {
		t.Fatalf("handler saw tenant %v, %v", seen, seenOK)
	}

	req = httptest.NewRequest("GET", "http://nobody.test/x", nil)
	h.ServeHTTP(httptest.NewRecorder(), req)
	if seenOK {
		t.Fatal("unrouted request carried a tenant")
	}

	snap := reg.Snapshot()
	if snap.Counters["tenant.a.requests"] != 1 {
		t.Fatalf("tenant.a.requests = %d, want 1", snap.Counters["tenant.a.requests"])
	}
	if snap.Counters["tenant.unrouted.requests"] != 1 {
		t.Fatalf("tenant.unrouted.requests = %d, want 1", snap.Counters["tenant.unrouted.requests"])
	}
}

func TestParseConfig(t *testing.T) {
	doc := `{
	  "tenants": [
	    {
	      "name": "shop",
	      "upstream": "http://127.0.0.1:9001",
	      "hosts": ["shop.example.com"],
	      "cacheBudget": 1048576,
	      "maxInflight": 64,
	      "requestBudget": "150ms",
	      "staleFor": "5m",
	      "healthInterval": "500ms"
	    },
	    {"name": "blog", "upstream": "http://127.0.0.1:9002", "pathPrefix": "/blog/"}
	  ],
	  "cluster": {"instance": "http://127.0.0.1:8001", "peers": ["http://127.0.0.1:8002"]}
	}`
	c, err := ParseConfig([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Tenants) != 2 {
		t.Fatalf("parsed %d tenants, want 2", len(c.Tenants))
	}
	if !c.Cluster.Enabled() {
		t.Fatal("cluster section not parsed")
	}
	shop, err := c.Tenants[0].Tenant()
	if err != nil {
		t.Fatal(err)
	}
	if shop.RequestBudget != 150*time.Millisecond || shop.StaleFor != 5*time.Minute {
		t.Fatalf("durations parsed wrong: %v, %v", shop.RequestBudget, shop.StaleFor)
	}
	if shop.BudgetBytes != 1048576 || shop.MaxInflight != 64 {
		t.Fatalf("budgets parsed wrong: %d bytes, %d in flight", shop.BudgetBytes, shop.MaxInflight)
	}
	if _, err := c.Resolver(); err != nil {
		t.Fatal(err)
	}
}

func TestParseConfigRejects(t *testing.T) {
	cases := []struct {
		name, doc, want string
	}{
		{"not json", `{`, "tenant config"},
		{"unknown field", `{"tenants":[{"name":"a","upstream":"http://x","hots":["a.test"]}]}`, "unknown field"},
		{"no tenants", `{"tenants":[]}`, "no tenants"},
		{"no upstream", `{"tenants":[{"name":"a"}]}`, "missing upstream"},
		// There is one eviction order: a tenant naming any policy, even the
		// one in force, is refused rather than silently ignored.
		{"bad policy", `{"tenants":[{"name":"a","upstream":"http://x","cachePolicy":"magic"}]}`, `unknown field "cachePolicy"`},
		{"retired policy", `{"tenants":[{"name":"a","upstream":"http://x","cachePolicy":"lru"}]}`, `unknown field "cachePolicy"`},
		{"retired policy pair", `{"tenants":[{"name":"a","upstream":"http://x","cachePolicy":"gdsf"}]}`, `unknown field "cachePolicy"`},
		{"bad duration", `{"tenants":[{"name":"a","upstream":"http://x","staleFor":"fast"}]}`, "duration"},
		// Each probe may take half the interval; 5 ms fails healthy origins.
		{"fast health", `{"tenants":[{"name":"a","upstream":"http://x","healthInterval":"99ms"}]}`, `tenant "a": healthInterval 99ms is below the 100ms floor`},
		{"dup names", `{"tenants":[
			{"name":"a","upstream":"http://x","hosts":["a.test"]},
			{"name":"a","upstream":"http://y","hosts":["b.test"]}]}`, "duplicate"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := ParseConfig([]byte(c.doc))
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("err = %v, want substring %q", err, c.want)
			}
		})
	}
}

// FuzzParseConfig feeds catalystd.json, a trust boundary an operator's file
// crosses at start-up, to ParseConfig, and every config it accepts to
// Config.Resolver: neither may panic on any input.
func FuzzParseConfig(f *testing.F) {
	f.Add([]byte(`{"tenants":[{"name":"shop","upstream":"http://127.0.0.1:9001","hosts":["shop.example.com"],
		"cacheBudget":1048576,"maxInflight":64,"requestBudget":"150ms","staleFor":"5m","healthInterval":"500ms"},
		{"name":"blog","upstream":"http://127.0.0.1:9002","pathPrefix":"/blog/"}],
		"cluster":{"instance":"http://127.0.0.1:8001","peers":["http://127.0.0.1:8002"]}}`))
	f.Add([]byte(`{"tenants":[{"name":"a","upstream":"http://x","hosts":["a.test:8080","A.TEST"]}]}`))
	f.Add([]byte(`{"tenants":[{"name":"a","upstream":"::bad","pathPrefix":""},{"name":"b","upstream":"http://y"}]}`))
	f.Add([]byte(`{"tenants":[{"name":"a","upstream":"http://x","staleFor":"-5m","cacheBudget":-1}]}`))
	f.Add([]byte(`{"tenants":[{"name":"a","upstream":"http://x","requestBudget":1e300}]}`))
	f.Add([]byte(`{"tenants":[{"name":"a","upstream":"http://x","healthInterval":"5ms"}]}`))
	f.Add([]byte(`{"tenants":[]}`))
	f.Add([]byte(`{`))
	f.Fuzz(func(t *testing.T, doc []byte) {
		c, err := ParseConfig(doc)
		if err != nil {
			return
		}
		_, _ = c.Resolver()
	})
}
