// Namespaced views: the tenant dimension of the cache core.
//
// A multi-tenant edge tier must give each application its own cache budget
// — Ma et al.'s app-scoped-cache argument, and the shape CacheLib's pools
// take — without giving up the warm-path properties the shared core earned.
// Store.Namespace carves a store into named sub-stores that inherit the
// parent's configuration (shard count, size accounting, telemetry registry)
// while owning their bytes, their eviction order and their budget outright:
//
//   - Per-namespace byte accounting: each namespace's Bytes()/Len() count
//     only its own entries, and the parent's TotalBytes() sums the family.
//   - Isolation by construction: a namespace's eviction scan never visits
//     another namespace's entries, so one tenant filling (or thrashing) its
//     budget cannot starve a sibling — the failure mode a shared flat
//     budget invites under a crawler-shaped tenant.
//   - The lock-free read path is untouched: a namespace IS a Store, running
//     the exact same lock-free Get fast lane, which is what the differential
//     test (namespace views vs independent stores) pins.
//
// Namespaces are memoized: the same name always returns the same child, so
// concurrent request paths can call Namespace on every request and share
// state. Budgets default to the parent's current budget (the semantics of
// "an independent store configured like the parent"); tenants with explicit
// budgets call Resize or pass NamespaceOptions.MaxBytes on first use.
package cachestore

// NamespaceOptions tunes a namespace at creation. Only the first call for
// a given name creates the child; later calls return the memoized store
// and ignore the options.
type NamespaceOptions struct {
	// MaxBytes is the namespace's byte budget. Zero inherits the parent's
	// current budget; negative means unbounded.
	MaxBytes int64
	// TelemetryName overrides the child's instrument prefix in the
	// parent's registry. Empty selects "<parent name>.ns.<name>"; with no
	// parent registry or name, no instruments are registered either way.
	TelemetryName string
}

// Namespace returns the named sub-store, creating it on first use with the
// parent's configuration and budget. See NamespaceWith for tuning.
func (s *Store[V]) Namespace(name string) *Store[V] {
	return s.NamespaceWith(name, NamespaceOptions{})
}

// NamespaceWith is Namespace with creation-time options.
func (s *Store[V]) NamespaceWith(name string, nsOpts NamespaceOptions) *Store[V] {
	s.nsMu.Lock()
	defer s.nsMu.Unlock()
	if c, ok := s.children[name]; ok {
		return c
	}
	opts := s.opts
	opts.MaxBytes = nsOpts.MaxBytes
	if opts.MaxBytes == 0 {
		opts.MaxBytes = s.maxBytes.Load()
	} else if opts.MaxBytes < 0 {
		opts.MaxBytes = 0 // unbounded in Store terms
	}
	switch {
	case nsOpts.TelemetryName != "":
		opts.Name = nsOpts.TelemetryName
	case opts.Name != "":
		opts.Name = opts.Name + ".ns." + name
	}
	c := New(opts)
	if s.children == nil {
		s.children = make(map[string]*Store[V])
	}
	s.children[name] = c
	return c
}

// NamespaceNames returns the names of the namespaces created so far, in no
// particular order.
func (s *Store[V]) NamespaceNames() []string {
	s.nsMu.Lock()
	defer s.nsMu.Unlock()
	names := make([]string, 0, len(s.children))
	for n := range s.children {
		names = append(names, n)
	}
	return names
}

// TotalBytes returns the charged bytes of the store and every namespace
// under it — the number a process-level memory budget watches.
func (s *Store[V]) TotalBytes() int64 {
	total := s.Bytes()
	s.nsMu.Lock()
	children := make([]*Store[V], 0, len(s.children))
	for _, c := range s.children {
		children = append(children, c)
	}
	s.nsMu.Unlock()
	for _, c := range children {
		total += c.TotalBytes()
	}
	return total
}

// TotalLen returns the entry count of the store and every namespace under
// it.
func (s *Store[V]) TotalLen() int {
	total := s.Len()
	s.nsMu.Lock()
	children := make([]*Store[V], 0, len(s.children))
	for _, c := range s.children {
		children = append(children, c)
	}
	s.nsMu.Unlock()
	for _, c := range children {
		total += c.TotalLen()
	}
	return total
}
