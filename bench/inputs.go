package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"cachecatalyst/catalyst"
	"cachecatalyst/internal/vclock"
	"cachecatalyst/internal/webgen"
)

// scanRefs lists the same-origin references an HTML document names in
// href="/…" and src="/…" attributes, in document order without
// duplicates. It is the benchmark's own oracle for "which subresources
// does this page have": deliberately not the repo's parser, which is one
// of the layers under test.
func scanRefs(html []byte) []string {
	var refs []string
	seen := map[string]bool{}
	s := string(html)
	for i := 0; i < len(s); {
		j := strings.IndexByte(s[i:], '=')
		if j < 0 {
			break
		}
		eq := i + j
		i = eq + 1
		if !(strings.HasSuffix(s[:eq], "href") || strings.HasSuffix(s[:eq], "src")) {
			continue
		}
		if eq+2 >= len(s) || s[eq+1] != '"' || s[eq+2] != '/' {
			continue
		}
		end := strings.IndexByte(s[eq+2:], '"')
		if end < 0 {
			break
		}
		ref := s[eq+2 : eq+2+end]
		if k := strings.IndexAny(ref, "?#"); k >= 0 {
			ref = ref[:k]
		}
		if !strings.HasPrefix(ref, "//") && !seen[ref] {
			seen[ref] = true
			refs = append(refs, ref)
		}
		i = eq + 2 + end
	}
	return refs
}

// Shape versus seed. webgen draws a site's sizes and counts from wide
// ranges (a homepage is 20–60 KB with 27–46 references, stylesheets are
// 3–7 files of 5–40 KB, a 200–500 KB video is there or not), and CPU per
// request, resident memory and bytes per response all follow that shape:
// measured over ten seeds on a quiet box, serving "site 0 of the seed's
// corpus" moved cpu_us_per_op by 2x on page_warm while page_churn, whose
// shape is fixed, moved by 6%. A workload is therefore defined on one shape,
// and the seed varies what can vary without changing it:
//
//   - the site structure is the first site(s) of a fixed webgen corpus
//     (corpusSeed) that fall inside shapeBand — "a 40 KB page with ~38
//     references on a ~3.6 MB site" is what page_warm means;
//   - every body is salted with the benchmark's seed, which changes every
//     byte-derived tag and every X-Etag-Config but no length;
//   - request order, page popularity and the mutation schedule follow the
//     seed.
const corpusSeed = 1

var shapeBand = struct {
	resLo, resHi     int   // resources on the site
	bytesLo, bytesHi int64 // nominal site weight
	indexLo, indexHi int   // /index.html bytes
	aboutLo, aboutHi int   // /about.html bytes
	refsLo, refsHi   int   // same-origin references on /index.html
}{
	resLo: 66, resHi: 76,
	bytesLo: 3_300_000, bytesHi: 3_900_000,
	indexLo: 36_000, indexHi: 44_000,
	aboutLo: 24_000, aboutHi: 34_000,
	refsLo: 35, refsHi: 40,
}

// maxSiteScan bounds the search for in-band sites. About one site in 300
// is in the band, so the bound is never reached in practice; reaching it
// is reported rather than silently widening the band.
const maxSiteScan = 20000

func webgenParams() webgen.Params {
	return webgen.Params{Seed: corpusSeed, Sites: maxSiteScan}
}

// pickSites returns the indices of the first n sites of the fixed corpus
// whose shape lies in shapeBand.
func pickSites(n int) ([]int, error) {
	clock := vclock.NewVirtual(vclock.Epoch)
	p := webgenParams()
	b := shapeBand
	var picked []int
	for i := 0; i < maxSiteScan && len(picked) < n; i++ {
		s := webgen.GenerateOne(p, i, clock)
		if nr := s.NumResources(); nr < b.resLo || nr > b.resHi {
			continue
		}
		if tb := s.TotalBytes(); tb < b.bytesLo || tb > b.bytesHi {
			continue
		}
		c := s.Content()
		idx, ok := c.Get(webgen.PagePath)
		if !ok || len(idx.Body) < b.indexLo || len(idx.Body) > b.indexHi {
			continue
		}
		ab, ok := c.Get(webgen.SecondaryPagePath)
		if !ok || len(ab.Body) < b.aboutLo || len(ab.Body) > b.aboutHi {
			continue
		}
		if nrefs := len(scanRefs(idx.Body)); nrefs < b.refsLo || nrefs > b.refsHi {
			continue
		}
		picked = append(picked, i)
	}
	if len(picked) < n {
		return nil, fmt.Errorf("only %d of %d sites within the shape band in the first %d of the corpus", len(picked), n, maxSiteScan)
	}
	return picked, nil
}

// contentType is what the bench origin labels a path; the middleware
// decides HTML-vs-passthrough and stylesheet handling from it.
func contentType(path string) string {
	switch filepath.Ext(path) {
	case ".html":
		return "text/html; charset=utf-8"
	case ".css":
		return "text/css; charset=utf-8"
	case ".js":
		return "text/javascript; charset=utf-8"
	case ".png":
		return "image/png"
	case ".woff2":
		return "font/woff2"
	case ".mp4":
		return "video/mp4"
	}
	return "application/octet-stream"
}

// salted returns body with sixteen bytes near its end replaced by a token
// of (seed, path). webgen pads every text resource with filler lines and
// every binary one with zeros, and the replaced stretch lies inside that
// padding, so structure and length are untouched.
func salted(body []byte, seed int64, path string) []byte {
	const at, n = 80, 16
	if len(body) < 2*at {
		return body
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%s", seed, path)
	out := append([]byte(nil), body...)
	copy(out[len(out)-at:len(out)-at+n], fmt.Sprintf("%016x", h.Sum64()))
	return out
}

// webgenSite freezes the index-th site of the fixed corpus into the
// benchmark's site model under the given host name, salted with seed.
// webgen content never changes during a run.
func webgenSite(seed int64, index int, host string) *site {
	clock := vclock.NewVirtual(vclock.Epoch)
	ws := webgen.GenerateOne(webgenParams(), index, clock)
	content := ws.Content()
	s := &site{host: host, seed: seed, contentTags: true, res: map[string]*resource{}}
	for _, p := range content.Paths() {
		res, ok := content.Get(p)
		if !ok {
			continue
		}
		body := salted(res.Body, seed, p)
		r := &resource{path: p, ctype: contentType(p), html: strings.HasSuffix(p, ".html")}
		if r.html {
			r.refs = scanRefs(body)
		}
		r.render = func(int) []byte { return body }
		s.add(r)
	}
	return s
}

// fileTag is the entity tag a file-serving catalystd derives for a body.
func fileTag(body []byte) string { return catalyst.TagForBytes(body).String() }

// materialize writes the site's current bodies under dir, the input of
// `catalystd -dir`.
func materialize(s *site, dir string) error {
	for p, r := range s.res {
		full := filepath.Join(dir, filepath.FromSlash(p))
		if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
			return err
		}
		if err := os.WriteFile(full, r.current().body, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// Shape of the page_churn catalogue: a working set about three times the
// daemon's default 16 MiB render budget, over more subresource paths than
// the default 4096-entry probe cache holds.
const (
	churnPages       = 1200
	churnSubs        = 6000
	churnPageBytes   = 40_000
	churnRefsPerPage = 40
	churnZipfS       = 0.9
	churnMutateEvery = 50 // client requests between origin mutations
	churnPageMutPct  = 70 // share of mutations that hit a page
)

const filler = "lorem ipsum dolor sit amet consectetur adipiscing elit sed do eiusmod tempor incididunt ut labore et dolore magna aliqua"

func padTo(b *strings.Builder, target int, open, close string) {
	for b.Len() < target {
		b.WriteString(open)
		b.WriteString(filler)
		b.WriteString(close)
	}
}

// churnSite templates a page_churn catalogue of nPages pages over nSubs
// subresources from the seed (the workload uses churnPages and churnSubs;
// tests use a smaller one): every page
// names churnRefsPerPage subresources drawn from the shared pool
// (4 stylesheets, 12 scripts, 24 images), so pages overlap the way pages
// of one site do and the probe cache sees reuse as well as eviction.
func churnSite(seed int64, host string, nPages, nSubs int) *site {
	rng := rand.New(rand.NewSource(seed*1_000_003 + 17))
	s := &site{host: host, seed: seed, res: map[string]*resource{}}
	var css, js, img []string
	for i := 0; i < nSubs; i++ {
		var path string
		var size int
		switch {
		case i%10 == 0:
			path, size = fmt.Sprintf("/css/c%04d.css", i), 6000
			css = append(css, path)
		case i%10 < 4:
			path, size = fmt.Sprintf("/js/j%04d.js", i), 4000
			js = append(js, path)
		default:
			path, size = fmt.Sprintf("/img/i%04d.png", i), 3000
			img = append(img, path)
		}
		tok := rng.Int63()
		r := &resource{path: path, ctype: contentType(path)}
		r.render = func(n int) []byte {
			var b strings.Builder
			b.Grow(size + 128)
			fmt.Fprintf(&b, "/* %s rev %d %x */\n", path, n, tok)
			padTo(&b, size, "/* ", " */\n")
			return []byte(b.String())
		}
		s.add(r)
	}
	pick := func(pool []string, n int, into []string) []string {
		for _, k := range rng.Perm(len(pool))[:n] {
			into = append(into, pool[k])
		}
		return into
	}
	for i := 0; i < nPages; i++ {
		path := fmt.Sprintf("/p/%04d.html", i)
		refs := pick(css, 4, nil)
		refs = pick(js, 12, refs)
		refs = pick(img, churnRefsPerPage-16, refs)
		tok := rng.Int63()
		r := &resource{path: path, ctype: contentType(path), html: true, refs: refs}
		r.render = func(n int) []byte {
			var b strings.Builder
			b.Grow(churnPageBytes + 256)
			fmt.Fprintf(&b, "<!DOCTYPE html>\n<!-- %s rev %d %x -->\n<html><head>\n<title>%s</title>\n", path, n, tok, path)
			for _, ref := range refs {
				switch {
				case strings.HasSuffix(ref, ".css"):
					fmt.Fprintf(&b, "<link rel=\"stylesheet\" href=\"%s\">\n", ref)
				case strings.HasSuffix(ref, ".js"):
					fmt.Fprintf(&b, "<script src=\"%s\"></script>\n", ref)
				}
			}
			b.WriteString("</head><body>\n")
			for _, ref := range refs {
				if strings.HasSuffix(ref, ".png") {
					fmt.Fprintf(&b, "<img src=\"%s\" alt=\"\">\n", ref)
				}
			}
			padTo(&b, churnPageBytes, "<p>", "</p>\n")
			b.WriteString("</body></html>\n")
			return []byte(b.String())
		}
		s.add(r)
	}
	return s
}

// zipf draws ranks 0..n-1 with P(k) ∝ 1/(k+1)^s. math/rand's Zipf needs
// s > 1; the workload's 0.9 does not qualify, so the CDF is tabulated.
type zipf struct{ cdf []float64 }

func newZipf(n int, s float64) *zipf {
	z := &zipf{cdf: make([]float64, n)}
	var sum float64
	for k := 0; k < n; k++ {
		sum += 1 / math.Pow(float64(k+1), s)
		z.cdf[k] = sum
	}
	for k := range z.cdf {
		z.cdf[k] /= sum
	}
	return z
}

func (z *zipf) draw(rng *rand.Rand) int {
	k := sort.SearchFloat64s(z.cdf, rng.Float64())
	if k >= len(z.cdf) {
		k = len(z.cdf) - 1
	}
	return k
}

// mutationTarget names the path the k-th origin mutation bumps. It depends
// on the seed and k only, so the schedule of what changes is the same on
// every run; when it changes follows the request count.
func mutationTarget(s *site, seed int64, k int64) string {
	rng := rand.New(rand.NewSource(seed*7_368_787 + k))
	if rng.Intn(100) < churnPageMutPct {
		return s.pages[rng.Intn(len(s.pages))]
	}
	return s.subs[rng.Intn(len(s.subs))]
}

// Tenants of edge_tenants, most popular first, and their traffic weights.
var (
	tenantNames   = []string{"t0", "t1", "t2", "t3"}
	tenantWeights = []int{8, 4, 2, 1}
)

func tenantHost(name string) string { return name + ".bench.example" }

// nonOwnerPct is the share of edge_tenants requests deliberately sent to
// the instance that does not own the page on the ring.
const nonOwnerPct = 10
