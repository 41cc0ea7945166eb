package tenant

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// Config is the declarative shape of a multi-tenant catalystd deployment —
// what `catalystd -config catalystd.json` loads. One file describes the
// whole edge instance: every tenant it fronts and, optionally, the cluster
// it participates in.
type Config struct {
	// Tenants describes the applications this edge instance serves. At
	// least one is required.
	Tenants []TenantConfig `json:"tenants"`
	// Cluster, when non-zero, joins the instance to a peer group for
	// consistent-hash sharding and hot-map exchange.
	Cluster ClusterConfig `json:"cluster,omitzero"`
}

// TenantConfig is one tenant's JSON form. Durations are strings in
// time.ParseDuration syntax ("150ms", "5m").
type TenantConfig struct {
	Name          string   `json:"name"`
	Upstream      string   `json:"upstream"`
	Hosts         []string `json:"hosts,omitempty"`
	PathPrefix    string   `json:"pathPrefix,omitempty"`
	CacheBudget   int64    `json:"cacheBudget,omitempty"`
	MaxInflight   int      `json:"maxInflight,omitempty"`
	RequestBudget Duration `json:"requestBudget,omitempty"`
	StaleFor      Duration `json:"staleFor,omitempty"`
	// HealthInterval is the upstream health-probe cadence, at least
	// 100ms; the probe's request timeout derives from it so one slow
	// upstream answer can never overlap the next probe.
	HealthInterval Duration `json:"healthInterval,omitempty"`
}

// ClusterConfig names this instance and its peers.
type ClusterConfig struct {
	// Instance is this node's ID on the ring (often its advertised URL).
	Instance string `json:"instance,omitempty"`
	// Peers are the other instances' base URLs, the targets of hot-map
	// gossip.
	Peers []string `json:"peers,omitempty"`
}

// Enabled reports whether the config describes cluster membership.
func (c ClusterConfig) Enabled() bool {
	return c.Instance != "" || len(c.Peers) > 0
}

// Duration is a time.Duration that unmarshals from a JSON string in
// time.ParseDuration syntax (or a bare number of nanoseconds).
type Duration time.Duration

func (d *Duration) UnmarshalJSON(b []byte) error {
	if len(b) > 0 && b[0] == '"' {
		var s string
		if err := json.Unmarshal(b, &s); err != nil {
			return err
		}
		v, err := time.ParseDuration(s)
		if err != nil {
			return err
		}
		*d = Duration(v)
		return nil
	}
	var ns int64
	if err := json.Unmarshal(b, &ns); err != nil {
		return err
	}
	*d = Duration(ns)
	return nil
}

func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// ParseConfig parses and validates a config document. Unknown fields are
// errors — a typoed knob that silently does nothing is worse than a
// refused config.
func ParseConfig(data []byte) (*Config, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var c Config
	if err := dec.Decode(&c); err != nil {
		return nil, fmt.Errorf("tenant config: %w", err)
	}
	if len(c.Tenants) == 0 {
		return nil, fmt.Errorf("tenant config: no tenants")
	}
	for i := range c.Tenants {
		tc := &c.Tenants[i]
		if tc.Upstream == "" {
			return nil, fmt.Errorf("tenant config: tenant %q: missing upstream (multi-tenant mode proxies; use -dir for single-tenant file serving)", tc.Name)
		}
		if _, err := tc.Tenant(); err != nil {
			return nil, fmt.Errorf("tenant config: %w", err)
		}
	}
	// NewResolver re-validates collisions (duplicate names, host and
	// prefix conflicts) — run it here so a bad file fails at load time,
	// not at first request.
	tenants := make([]*Tenant, len(c.Tenants))
	for i := range c.Tenants {
		tenants[i], _ = c.Tenants[i].Tenant()
	}
	if _, err := NewResolver(tenants); err != nil {
		return nil, fmt.Errorf("tenant config: %w", err)
	}
	return &c, nil
}

// LoadConfig reads and parses the config file at path.
func LoadConfig(path string) (*Config, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return ParseConfig(data)
}

// Tenant materializes and validates the descriptor.
func (tc TenantConfig) Tenant() (*Tenant, error) {
	t := &Tenant{
		Name:           tc.Name,
		Upstream:       tc.Upstream,
		Hosts:          tc.Hosts,
		PathPrefix:     tc.PathPrefix,
		BudgetBytes:    tc.CacheBudget,
		MaxInflight:    tc.MaxInflight,
		RequestBudget:  time.Duration(tc.RequestBudget),
		StaleFor:       time.Duration(tc.StaleFor),
		HealthInterval: time.Duration(tc.HealthInterval),
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}

// Resolver builds the routing resolver for the config's tenants.
func (c *Config) Resolver() (*Resolver, error) {
	tenants := make([]*Tenant, len(c.Tenants))
	for i := range c.Tenants {
		t, err := c.Tenants[i].Tenant()
		if err != nil {
			return nil, err
		}
		tenants[i] = t
	}
	return NewResolver(tenants)
}
