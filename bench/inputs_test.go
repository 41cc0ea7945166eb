package main

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

func TestScanRefs(t *testing.T) {
	html := []byte(`<html><head><link rel="stylesheet" href="/css/a.css">
<script src="/js/b.js?v=3" async></script><script src="https://cdn.example/x.js"></script>
</head><body><img src="/img/c.png" alt=""><img src="/img/c.png"><a href="//other.example/">x</a>
<img data-src="/img/lazy.png" alt="a=b"></body></html>`)
	got := scanRefs(html)
	want := []string{"/css/a.css", "/js/b.js", "/img/c.png", "/img/lazy.png"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("scanRefs = %v, want %v", got, want)
	}
}

func TestZipfDeterministicAndSkewed(t *testing.T) {
	z := newZipf(1200, churnZipfS)
	draw := func(seed int64) []int {
		rng := rand.New(rand.NewSource(seed))
		out := make([]int, 5000)
		for i := range out {
			out[i] = z.draw(rng)
		}
		return out
	}
	a, b := draw(1), draw(1)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed drew different ranks")
	}
	if reflect.DeepEqual(a, draw(2)) {
		t.Fatal("different seeds drew the same ranks")
	}
	head := 0
	for _, k := range a {
		if k < 0 || k >= 1200 {
			t.Fatalf("rank %d out of range", k)
		}
		if k < 120 {
			head++
		}
	}
	// With s = 0.9 over 1200 ranks the top tenth draws about 62%.
	if share := float64(head) / float64(len(a)); share < 0.5 || share > 0.66 {
		t.Errorf("top 10%% of ranks drew %.0f%% of requests, want about 62%%", 100*share)
	}
}

func TestMutationScheduleDeterministic(t *testing.T) {
	s := churnSite(3, "churn.test", 40, 200)
	pages, subs := 0, 0
	for k := int64(0); k < 2000; k++ {
		p := mutationTarget(s, 3, k)
		if p != mutationTarget(s, 3, k) {
			t.Fatalf("mutation %d is not a function of (seed, k)", k)
		}
		if s.res[p] == nil {
			t.Fatalf("mutation %d names %q, which the site does not have", k, p)
		}
		if s.res[p].html {
			pages++
		} else {
			subs++
		}
	}
	if share := 100 * pages / (pages + subs); share < churnPageMutPct-5 || share > churnPageMutPct+5 {
		t.Errorf("%d%% of mutations hit pages, want about %d%%", share, churnPageMutPct)
	}
	if mutationTarget(s, 3, 7) == mutationTarget(s, 4, 7) && mutationTarget(s, 3, 8) == mutationTarget(s, 4, 8) &&
		mutationTarget(s, 3, 9) == mutationTarget(s, 4, 9) {
		t.Error("the schedule does not depend on the seed")
	}
}

func TestChurnSiteShapeAndVersions(t *testing.T) {
	a, b := churnSite(5, "churn.test", 30, 200), churnSite(5, "churn.test", 30, 200)
	if len(a.pages) != 30 || len(a.subs) != 200 {
		t.Fatalf("%d pages and %d subresources, want 30 and 200", len(a.pages), len(a.subs))
	}
	for _, p := range a.pages {
		ra, rb := a.res[p], b.res[p]
		if string(ra.current().body) != string(rb.current().body) || ra.current().tag != rb.current().tag {
			t.Fatalf("%s differs between two sites of the same seed", p)
		}
		if len(ra.refs) != churnRefsPerPage {
			t.Fatalf("%s names %d subresources, want %d", p, len(ra.refs), churnRefsPerPage)
		}
		if got := scanRefs(ra.current().body); !sameSet(got, ra.refs) {
			t.Fatalf("%s: the body names %v, the model says %v", p, got, ra.refs)
		}
		if n := len(ra.current().body); n < churnPageBytes || n > churnPageBytes+400 {
			t.Fatalf("%s is %d bytes, want about %d", p, n, churnPageBytes)
		}
	}
	// A bump changes bytes and tag, keeps structure, and remembers both tags.
	page := a.res[a.pages[0]]
	old := page.current()
	a.bump(page.path)
	cur := page.current()
	if cur.n != 1 || cur.tag == old.tag || string(cur.body) == string(old.body) {
		t.Error("a bump did not produce a new revision")
	}
	if !sameSet(scanRefs(cur.body), page.refs) {
		t.Error("a bump changed the page's references")
	}
	for _, tag := range []string{old.tag, cur.tag} {
		if _, ok := page.issuedLen(tag); !ok {
			t.Errorf("tag %s missing from the page's issued history", tag)
		}
	}
	if _, ok := page.issuedLen(`"never"`); ok {
		t.Error("a tag the origin never issued is in the history")
	}
}

func sameSet(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	seen := map[string]bool{}
	for _, x := range a {
		seen[x] = true
	}
	for _, x := range b {
		if !seen[x] {
			return false
		}
	}
	return true
}

func TestEdgeSlotsRoutingSplit(t *testing.T) {
	var sites []*site
	for i, name := range tenantNames {
		sites = append(sites, webgenSite(1, i, tenantHost(name)))
	}
	slots := edgeSlots(sites)
	perTenant := map[string]int{}
	type key struct{ host, path string }
	targets := map[key]map[int]int{}
	for _, s := range slots {
		perTenant[s.site.host]++
		k := key{s.site.host, s.res.path}
		if targets[k] == nil {
			targets[k] = map[int]int{}
		}
		targets[k][s.target]++
	}
	// Tenants by weight 8:4:2:1.
	base := perTenant[tenantHost("t3")]
	for i, name := range tenantNames {
		if got, want := perTenant[tenantHost(name)], base*tenantWeights[i]; got != want {
			t.Errorf("tenant %s has %d slots, want %d", name, got, want)
		}
	}
	// Every (tenant, page) goes to one instance nine times in ten and to the
	// other the tenth time.
	if len(targets) != 2*len(tenantNames) {
		t.Fatalf("%d (tenant, page) pairs, want %d", len(targets), 2*len(tenantNames))
	}
	for k, byTarget := range targets {
		if len(byTarget) != 2 {
			t.Fatalf("%v is sent to %d instances, want 2", k, len(byTarget))
		}
		lo, hi := byTarget[0], byTarget[1]
		if lo > hi {
			lo, hi = hi, lo
		}
		if hi != 9*lo {
			t.Errorf("%v: split %d/%d, want 9:1", k, hi, lo)
		}
	}
}

func TestBlockTrafficKeepsTheMixAndFollowsTheSeed(t *testing.T) {
	s := webgenSite(1, 0, "site.test")
	sequence := func(seed int64, n int) []request {
		tr := newBlockTraffic(staticTraffic(s))
		c := newConn(0, seed, nil)
		out := make([]request, n)
		for i := range out {
			out[i] = tr.next(c)
		}
		return out
	}
	block := 10 * len(s.subs)
	a := sequence(1, 2*block)
	conditional := 0
	for _, rq := range a[:block] {
		if rq.inm != "" {
			conditional++
			if rq.inm != rq.res.current().tag {
				t.Fatalf("%s: If-None-Match %s is not the current tag", rq.res.path, rq.inm)
			}
		}
	}
	if conditional*10 != block*9 {
		t.Errorf("%d of %d requests conditional, want exactly 90%%", conditional, block)
	}
	same := func(x, y []request) bool {
		for i := range x {
			if x[i].res != y[i].res || x[i].inm != y[i].inm {
				return false
			}
		}
		return true
	}
	if !same(a, sequence(1, 2*block)) {
		t.Error("the same seed gave a different sequence")
	}
	if same(a, sequence(2, 2*block)) {
		t.Error("different seeds gave the same sequence")
	}
}

func TestPickSitesWithinBand(t *testing.T) {
	idx, err := pickSites(1)
	if err != nil {
		t.Fatal(err)
	}
	s := webgenSite(1, idx[0], "site.test")
	index := s.res["/index.html"]
	if n := len(index.current().body); n < shapeBand.indexLo || n > shapeBand.indexHi {
		t.Errorf("picked site's index.html is %d bytes, outside the band", n)
	}
	if n := len(index.refs); n < shapeBand.refsLo || n > shapeBand.refsHi {
		t.Errorf("picked site's index.html has %d references, outside the band", n)
	}
	again, _ := pickSites(1)
	if !reflect.DeepEqual(idx, again) {
		t.Error("the pick is not deterministic")
	}
}

func TestSaltChangesTagsNotShape(t *testing.T) {
	a, b := webgenSite(1, 0, "site.test"), webgenSite(2, 0, "site.test")
	if len(a.res) != len(b.res) || len(a.res) < 20 {
		t.Fatalf("%d and %d resources", len(a.res), len(b.res))
	}
	for p, ra := range a.res {
		rb := b.res[p]
		va, vb := ra.current(), rb.current()
		if len(va.body) != len(vb.body) {
			t.Errorf("%s: the seed changed the length (%d, %d)", p, len(va.body), len(vb.body))
		}
		if len(va.body) >= 160 && va.tag == vb.tag {
			t.Errorf("%s: the seed did not change the tag", p)
		}
		if !reflect.DeepEqual(ra.refs, rb.refs) {
			t.Errorf("%s: the seed changed the references", p)
		}
		if va.tag != fileTag(va.body) {
			t.Errorf("%s: tag %s is not the content-derived one", p, va.tag)
		}
	}
	index := a.res["/index.html"].current().body
	if !strings.HasSuffix(string(index), "</p>\n</body></html>\n") {
		t.Errorf("the salt damaged the page's closing markup: %q", index[len(index)-40:])
	}
}
