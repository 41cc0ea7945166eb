package main

import (
	"fmt"
	"hash/fnv"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// The bench-owned origin. It is plain net/http and shares no code with the
// repo's serving path, so the program under test sees only HTTP requests.
// It owns the version timeline: which body and tag each path has now, and
// every tag it has ever issued for that path, which is what the checker
// judges a served X-Etag-Config against.

// version is one immutable revision of a resource.
type version struct {
	n    int
	body []byte
	tag  string // quoted entity tag, as sent in the Etag header
}

// resource is one path of a site.
type resource struct {
	path  string
	ctype string
	html  bool
	// refs are the same-origin subresources the HTML names; fixed across
	// versions (a bump changes bytes, not structure).
	refs []string
	// render builds the body of revision n.
	render func(n int) []byte

	cur atomic.Pointer[version]
	mu  sync.Mutex
	// issued holds every tag the origin has served or could have served
	// for this path. Only bump writes it, only the checker reads it.
	issued map[string]int // tag -> body length
}

func (r *resource) current() *version { return r.cur.Load() }

// setVersion renders and installs revision n of a resource of site s.
func (r *resource) setVersion(s *site, n int) {
	body := r.render(n)
	v := &version{n: n, body: body}
	if s.contentTags {
		v.tag = fileTag(body)
	} else {
		h := fnv.New64a()
		fmt.Fprintf(h, "%d|%s|%s|%d", s.seed, s.host, r.path, n)
		v.tag = `"` + strconv.FormatUint(h.Sum64(), 16) + `"`
	}
	r.mu.Lock()
	if r.issued == nil {
		r.issued = make(map[string]int)
	}
	r.issued[v.tag] = len(body)
	r.mu.Unlock()
	r.cur.Store(v)
}

// issuedLen reports whether the origin ever issued tag for this path, and
// the length of the body it named.
func (r *resource) issuedLen(tag string) (int, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	n, ok := r.issued[tag]
	return n, ok
}

// site is one host's content.
type site struct {
	host string
	seed int64
	// contentTags selects the content-derived tags a file-serving catalystd
	// computes, so one site model is the truth both for -dir mode and
	// behind the bench origin; otherwise tags name (path, revision).
	contentTags bool
	res         map[string]*resource
	pages       []string // HTML paths, in a fixed order
	subs        []string // subresource paths, in a fixed order
}

func (s *site) add(r *resource) {
	s.res[r.path] = r
	if r.html {
		s.pages = append(s.pages, r.path)
	} else {
		s.subs = append(s.subs, r.path)
	}
	r.setVersion(s, 0)
}

// bump advances one resource to its next revision.
func (s *site) bump(path string) {
	r := s.res[path]
	r.setVersion(s, r.current().n+1)
}

// origin serves one or more sites, routed by Host.
type origin struct {
	sites map[string]*site
	only  *site // set when there is exactly one site: Host is ignored
	// requests counts every request the origin answered, the numerator of
	// catalyst.origin_fetches_per_op.
	requests atomic.Int64
	// onServe, when set, wraps each request; the traced replay records the
	// child spans of a handler stack here.
	onServe func(path string, serve func())
}

func newOrigin(sites ...*site) *origin {
	o := &origin{sites: make(map[string]*site, len(sites))}
	for _, s := range sites {
		o.sites[s.host] = s
	}
	if len(sites) == 1 {
		o.only = sites[0]
	}
	return o
}

func hostOnly(hostport string) string {
	if h, _, err := net.SplitHostPort(hostport); err == nil {
		return h
	}
	return hostport
}

func (o *origin) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	o.requests.Add(1)
	if o.onServe != nil {
		o.onServe(r.URL.Path, func() { o.serve(w, r) })
		return
	}
	o.serve(w, r)
}

func (o *origin) serve(w http.ResponseWriter, r *http.Request) {
	s := o.only
	if s == nil {
		s = o.sites[hostOnly(r.Host)]
	}
	if r.URL.Path == "/" {
		// catalystd's upstream health probe asks for the bare origin URL.
		w.WriteHeader(http.StatusOK)
		return
	}
	var res *resource
	if s != nil {
		res = s.res[r.URL.Path]
	}
	if res == nil {
		http.NotFound(w, r)
		return
	}
	v := res.current()
	h := w.Header()
	h["Etag"] = []string{v.tag}
	if inm := r.Header.Get("If-None-Match"); inm != "" && strings.Contains(inm, v.tag) {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	h["Content-Type"] = []string{res.ctype}
	h["Content-Length"] = []string{strconv.Itoa(len(v.body))}
	if res.html {
		h["Cache-Control"] = []string{"no-cache"}
	}
	w.WriteHeader(http.StatusOK)
	if r.Method != http.MethodHead {
		_, _ = w.Write(v.body) // a client that went away is the client's problem
	}
}

// listen serves the origin on a loopback port until the returned stop
// function is called; stop waits for the server to finish.
func (o *origin) listen() (addr string, stop func(), err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: o}
	done := make(chan struct{})
	go func() {
		_ = srv.Serve(ln) // always ErrServerClosed after stop
		close(done)
	}()
	return ln.Addr().String(), func() {
		_ = srv.Close()
		<-done
	}, nil
}
