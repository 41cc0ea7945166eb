// Package server implements the content half of the paper's server side: a
// static web server (the file server behind the authors' modified Caddy)
// that serves site content with configurable cache-header policies and
// answers conditional requests with 304s. Decoration — the X-Etag-Config map
// and the Service-Worker registration snippet on every HTML response — is
// catalyst.Middleware's, placed in front of a Server (see Decorator).
//
// The same handler serves both worlds: real sockets via net/http (examples,
// integration tests, cmd/catalystd) and the discrete-event simulator via
// the Origin adapter, so every experiment exercises identical header logic.
package server

import (
	"io/fs"
	"mime"
	"path"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"cachecatalyst/internal/etag"
)

// CachePolicy is the per-resource caching contract a developer (or their
// CMS) would configure — exactly the decision surface §2 of the paper says
// developers get wrong.
type CachePolicy struct {
	// NoStore forbids caching entirely.
	NoStore bool
	// NoCache allows caching but forces revalidation on every use.
	NoCache bool
	// MaxAge sets the freshness lifetime when HasMaxAge is true.
	MaxAge    time.Duration
	HasMaxAge bool
}

// CacheControl renders the policy as a Cache-Control value; empty string
// means the header is omitted (leaving freshness to heuristics).
func (p CachePolicy) CacheControl() string {
	switch {
	case p.NoStore:
		return "no-store"
	case p.NoCache:
		return "no-cache"
	case p.HasMaxAge:
		return "max-age=" + strconv.FormatInt(int64(p.MaxAge/time.Second), 10)
	}
	return ""
}

// Resource is one servable entity at a point in time. Content
// implementations treat a Resource as immutable once handed to Get — a
// changed entity is a new *Resource — which is what lets the server cache
// the wire-format header values derived from it.
//
// Body in particular is never written after it enters a Resource: the
// simulator's origin adapter (NewOrigin) hands this very slice to the
// emulated browser, whose caches and parsers share it (the ownership rule
// on httpcache.Response).
type Resource struct {
	Body         []byte
	ContentType  string
	ETag         etag.Tag
	Policy       CachePolicy
	LastModified time.Time

	// hdr memoizes the rendered header values (ETag string, Content-Type
	// slice, …) the serve path would otherwise re-allocate per request.
	// Built lazily on first serve; racing builders produce identical
	// values, so last-store-wins is fine.
	hdr atomic.Pointer[resourceHeaders]
	// hints memoizes an HTML page's early-hints Link values
	// (Server.hintsFor), under the same discipline.
	hints atomic.Pointer[preloadHints]
}

// Content supplies the site being served. Implementations must reflect the
// site's *current* state: the synthetic corpus mutates resources over
// virtual time, and the handler must see those changes the way Caddy sees
// edited files.
type Content interface {
	// Get returns the resource at an origin-relative path (query string
	// included, as produced by core.BuildMap), or ok=false.
	Get(p string) (*Resource, bool)
	// Paths enumerates all servable paths in stable order (used by
	// recording bootstrap and corpus introspection).
	Paths() []string
}

// MemContent is an in-memory Content, the backend for unit tests and
// hand-built sites.
type MemContent struct {
	resources map[string]*Resource
}

// NewMemContent returns an empty in-memory site.
func NewMemContent() *MemContent {
	return &MemContent{resources: make(map[string]*Resource)}
}

// Set stores a resource at path, deriving the ETag from the body when the
// resource has none.
func (m *MemContent) Set(p string, r *Resource) {
	if r.ETag.IsZero() {
		r.ETag = etag.ForBytes(r.Body)
	}
	if r.ContentType == "" {
		r.ContentType = TypeByPath(p)
	}
	m.resources[p] = r
}

// SetBody is shorthand for Set with just a body and policy.
func (m *MemContent) SetBody(p string, body string, policy CachePolicy) {
	m.Set(p, &Resource{Body: []byte(body), Policy: policy})
}

// Get implements Content.
func (m *MemContent) Get(p string) (*Resource, bool) {
	r, ok := m.resources[p]
	return r, ok
}

// Delete removes the resource at path.
func (m *MemContent) Delete(p string) { delete(m.resources, p) }

// Paths implements Content.
func (m *MemContent) Paths() []string {
	out := make([]string, 0, len(m.resources))
	for p := range m.resources {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// PolicyFunc assigns a cache policy to a path; used by FSContent.
type PolicyFunc func(path string) CachePolicy

// FSContent serves a directory tree (cmd/catalystd's backend). Files are
// read eagerly so that ETags are stable snapshots; call Reload to pick up
// edits. Reload may run while requests are being served: the snapshot is
// swapped atomically, so a request sees the old tree or the new one.
type FSContent struct {
	fsys   fs.FS
	policy PolicyFunc
	mem    atomic.Pointer[MemContent]
}

// NewFSContent loads every regular file under fsys. policy may be nil, in
// which case no Cache-Control headers are emitted (the all-heuristics
// configuration §2 attributes to inattentive deployments).
func NewFSContent(fsys fs.FS, policy PolicyFunc) (*FSContent, error) {
	c := &FSContent{fsys: fsys, policy: policy}
	return c, c.Reload()
}

// Reload re-reads the tree from the filesystem.
func (c *FSContent) Reload() error {
	mem := NewMemContent()
	err := fs.WalkDir(c.fsys, ".", func(p string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		body, err := fs.ReadFile(c.fsys, p)
		if err != nil {
			return err
		}
		urlPath := "/" + p
		var pol CachePolicy
		if c.policy != nil {
			pol = c.policy(urlPath)
		}
		mem.Set(urlPath, &Resource{Body: body, Policy: pol})
		if base := path.Base(p); base == "index.html" || base == "index.htm" {
			dir := "/" + strings.TrimSuffix(p, base)
			mem.Set(dir, &Resource{Body: body, Policy: pol, ContentType: TypeByPath(urlPath)})
		}
		return nil
	})
	if err != nil {
		return err
	}
	c.mem.Store(mem)
	return nil
}

// Get implements Content.
func (c *FSContent) Get(p string) (*Resource, bool) { return c.mem.Load().Get(p) }

// Paths implements Content.
func (c *FSContent) Paths() []string { return c.mem.Load().Paths() }

// TypeByPath maps a URL path to a Content-Type, defaulting to
// application/octet-stream.
func TypeByPath(p string) string {
	if i := strings.IndexByte(p, '?'); i >= 0 {
		p = p[:i]
	}
	ext := path.Ext(p)
	if ext == "" || strings.HasSuffix(p, "/") {
		return "text/html; charset=utf-8"
	}
	switch ext {
	case ".html", ".htm":
		return "text/html; charset=utf-8"
	case ".css":
		return "text/css; charset=utf-8"
	case ".js", ".mjs":
		return "text/javascript; charset=utf-8"
	case ".json":
		return "application/json"
	case ".svg":
		return "image/svg+xml"
	case ".woff2":
		return "font/woff2"
	case ".woff":
		return "font/woff"
	}
	if t := mime.TypeByExtension(ext); t != "" {
		return t
	}
	return "application/octet-stream"
}
