package webgen

import (
	"net/http"
	"strings"
	"testing"
	"time"

	"cachecatalyst/catalyst"
	"cachecatalyst/internal/core"
	"cachecatalyst/internal/htmlparse"
	"cachecatalyst/internal/jsexec"
	"cachecatalyst/internal/netsim"
	"cachecatalyst/internal/server"
	"cachecatalyst/internal/vclock"
)

func smallCorpus(clock vclock.Clock) *Corpus {
	return Generate(Params{Sites: 5, Seed: 42}, clock)
}

func newGet(path string) *netsim.Request {
	return &netsim.Request{Method: "GET", Path: path, Header: make(http.Header)}
}

func TestGenerateDeterministic(t *testing.T) {
	c1 := Generate(Params{Sites: 3, Seed: 7}, vclock.NewVirtual(vclock.Epoch))
	c2 := Generate(Params{Sites: 3, Seed: 7}, vclock.NewVirtual(vclock.Epoch))
	for i := range c1.Sites {
		r1, ok1 := c1.Sites[i].Content().Get(PagePath)
		r2, ok2 := c2.Sites[i].Content().Get(PagePath)
		if !ok1 || !ok2 {
			t.Fatal("page missing")
		}
		if string(r1.Body) != string(r2.Body) || r1.ETag != r2.ETag {
			t.Fatalf("site %d not deterministic", i)
		}
	}
	// Different seeds differ.
	c3 := Generate(Params{Sites: 3, Seed: 8}, vclock.NewVirtual(vclock.Epoch))
	r1, _ := c1.Sites[0].Content().Get(PagePath)
	r3, _ := c3.Sites[0].Content().Get(PagePath)
	if string(r1.Body) == string(r3.Body) {
		t.Fatal("different seeds produced identical sites")
	}
}

func TestDefaultsApplied(t *testing.T) {
	c := Generate(Params{Sites: 1}, vclock.NewVirtual(vclock.Epoch))
	if c.Params.Sites != 1 || c.Params.Seed != 1 || c.Params.Scale != 1.0 {
		t.Fatalf("params = %+v", c.Params)
	}
	if len(c.Sites) != 1 {
		t.Fatal("site count wrong")
	}
}

func TestPageParsesAndReferencesExist(t *testing.T) {
	clock := vclock.NewVirtual(vclock.Epoch)
	for _, site := range smallCorpus(clock).Sites {
		page, ok := site.Content().Get(PagePath)
		if !ok {
			t.Fatal("no page")
		}
		rs := htmlparse.ExtractFromHTML(string(page.Body))
		if len(rs) < 10 {
			t.Fatalf("%s: only %d resources extracted", site.Host, len(rs))
		}
		for _, r := range rs {
			if strings.HasPrefix(r.URL, "https://") {
				if !strings.Contains(r.URL, site.CDNHost) {
					t.Errorf("foreign absolute URL %q", r.URL)
				}
				path := r.URL[strings.Index(r.URL[8:], "/")+8:]
				if _, ok := site.CDNContent().Get(path); !ok {
					t.Errorf("CDN resource %q unservable", r.URL)
				}
				continue
			}
			if _, ok := site.Content().Get(r.URL); !ok {
				t.Errorf("%s: referenced %q not servable", site.Host, r.URL)
			}
		}
	}
}

func TestCSSReferencesResolve(t *testing.T) {
	clock := vclock.NewVirtual(vclock.Epoch)
	site := smallCorpus(clock).Sites[0]
	checked := 0
	for _, p := range site.Content().Paths() {
		if !strings.HasSuffix(p, ".css") {
			continue
		}
		res, _ := site.Content().Get(p)
		for _, ref := range htmlparse.ExtractFromHTML("<style>" + string(res.Body) + "</style>") {
			_ = ref
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no stylesheets generated")
	}
}

func TestJSDirectivesResolve(t *testing.T) {
	clock := vclock.NewVirtual(vclock.Epoch)
	site := smallCorpus(clock).Sites[0]
	directives := 0
	for _, p := range site.Content().Paths() {
		if !strings.HasSuffix(p, ".js") {
			continue
		}
		res, _ := site.Content().Get(p)
		for _, u := range jsexec.ExtractFetches(string(res.Body)) {
			directives++
			if _, ok := site.Content().Get(u); !ok {
				t.Errorf("JS-discovered %q not servable", u)
			}
		}
	}
	if directives == 0 {
		t.Fatal("no JS-discovered resources generated")
	}
}

func TestResourceSizesApproximateSpec(t *testing.T) {
	clock := vclock.NewVirtual(vclock.Epoch)
	site := smallCorpus(clock).Sites[0]
	for _, p := range site.Content().Paths() {
		res, _ := site.Content().Get(p)
		spec := site.specs[p]
		got := len(res.Body)
		if got < spec.size || got > spec.size+4096 {
			t.Errorf("%s: body %d bytes, spec %d", p, got, spec.size)
		}
	}
}

func TestPageWeightRealistic(t *testing.T) {
	clock := vclock.NewVirtual(vclock.Epoch)
	c := Generate(Params{Sites: 20, Seed: 3}, clock)
	var total float64
	for _, s := range c.Sites {
		total += float64(s.TotalBytes())
	}
	mean := total / float64(len(c.Sites))
	// Paper cites ≈2.5 MB/page; accept a broad band.
	if mean < 1.2e6 || mean > 4.5e6 {
		t.Fatalf("mean page weight %.0f bytes outside [1.2MB, 4.5MB]", mean)
	}
	var count int
	for _, s := range c.Sites {
		count += s.NumResources()
	}
	if meanRes := float64(count) / float64(len(c.Sites)); meanRes < 35 || meanRes > 120 {
		t.Fatalf("mean resources/page %.1f outside [35, 120]", meanRes)
	}
}

func TestMutationOverTime(t *testing.T) {
	clock := vclock.NewVirtual(vclock.Epoch)
	site := smallCorpus(clock).Sites[0]
	page0, _ := site.Content().Get(PagePath)
	tag0 := page0.ETag

	// Within a minute nothing changes.
	clock.Advance(time.Minute)
	page1, _ := site.Content().Get(PagePath)
	if page1.ETag != tag0 {
		t.Fatal("page changed within a minute")
	}

	// After 60 days the homepage must have changed (period ≤ ~3.25d).
	clock.Advance(60 * 24 * time.Hour)
	page2, _ := site.Content().Get(PagePath)
	if page2.ETag == tag0 {
		t.Fatal("page unchanged after 60 days")
	}
	if string(page2.Body) == string(page0.Body) {
		t.Fatal("ETag changed but body did not")
	}
}

func TestETagChangesExactlyWithContent(t *testing.T) {
	clock := vclock.NewVirtual(vclock.Epoch)
	site := smallCorpus(clock).Sites[0]
	type snapshot struct {
		tag  string
		body string
	}
	paths := site.Content().Paths()
	take := func() map[string]snapshot {
		out := make(map[string]snapshot)
		for _, p := range paths {
			r, _ := site.Content().Get(p)
			out[p] = snapshot{tag: r.ETag.String(), body: string(r.Body)}
		}
		return out
	}
	before := take()
	clock.Advance(7 * 24 * time.Hour)
	after := take()
	for _, p := range paths {
		tagChanged := before[p].tag != after[p].tag
		bodyChanged := before[p].body != after[p].body
		if tagChanged != bodyChanged {
			t.Errorf("%s: tagChanged=%v bodyChanged=%v", p, tagChanged, bodyChanged)
		}
	}
}

func TestLastModifiedTracksChanges(t *testing.T) {
	clock := vclock.NewVirtual(vclock.Epoch)
	site := smallCorpus(clock).Sites[0]
	res, _ := site.Content().Get(PagePath)
	if !res.LastModified.Before(clock.Now()) {
		t.Fatal("initial Last-Modified not in the past")
	}
	clock.Advance(90 * 24 * time.Hour)
	res2, _ := site.Content().Get(PagePath)
	if !res2.LastModified.After(res.LastModified) {
		t.Fatal("Last-Modified did not advance with a change")
	}
	if res2.LastModified.After(clock.Now()) {
		t.Fatal("Last-Modified in the future")
	}
}

func TestCrossOriginSeparation(t *testing.T) {
	clock := vclock.NewVirtual(vclock.Epoch)
	c := Generate(Params{Sites: 10, Seed: 9}, clock)
	foundCDN := false
	for _, site := range c.Sites {
		for _, p := range site.CDNContent().Paths() {
			foundCDN = true
			if _, ok := site.Content().Get(p); ok {
				t.Errorf("%s also served on main origin", p)
			}
		}
	}
	if !foundCDN {
		t.Fatal("no cross-origin resources in 10 sites")
	}
}

func TestCrossOriginDisabled(t *testing.T) {
	clock := vclock.NewVirtual(vclock.Epoch)
	c := Generate(Params{Sites: 5, Seed: 9, CrossOriginFrac: -1}, clock)
	for _, site := range c.Sites {
		if n := len(site.CDNContent().Paths()); n != 0 {
			t.Fatalf("CDN has %d resources with cross-origin disabled", n)
		}
	}
}

func TestServableThroughServerWithCatalyst(t *testing.T) {
	clock := vclock.NewVirtual(vclock.Epoch)
	site := smallCorpus(clock).Sites[0]
	s := server.New(site.Content(), server.Options{Clock: clock})
	origin := server.NewOrigin(catalyst.Middleware(s, catalyst.MiddlewareOptions{}))
	resp := origin.RoundTrip(newGet(PagePath))
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	m, err := core.DecodeMap(resp.Header.Get(core.HeaderName))
	if err != nil {
		t.Fatal(err)
	}
	if len(m) < 10 {
		t.Fatalf("map too small: %d entries", len(m))
	}
	// Every map entry must be servable and carry the same tag.
	for p, tag := range m {
		r, ok := site.Content().Get(p)
		if !ok {
			t.Errorf("map entry %q not servable", p)
			continue
		}
		if r.ETag != tag {
			t.Errorf("map tag for %q = %v, served %v", p, tag, r.ETag)
		}
	}
	// JS-discovered resources must NOT be in the static map.
	for _, p := range site.Content().Paths() {
		if !strings.HasSuffix(p, ".js") {
			continue
		}
		res, _ := site.Content().Get(p)
		for _, u := range jsexec.ExtractFetches(string(res.Body)) {
			if _, ok := m[u]; ok {
				// Only an error if u is *solely* JS-discovered; images in
				// CSS can legitimately appear. JS-discovered images are in
				// the 25% pool that nothing else references, and child JS
				// is never in HTML, so presence in the map is a leak.
				t.Errorf("JS-discovered %q leaked into the static map", u)
			}
		}
	}
}

func TestMobileProfileLighterThanDesktop(t *testing.T) {
	clock := vclock.NewVirtual(vclock.Epoch)
	desktop := Generate(Params{Sites: 10, Seed: 4, Profile: ProfileDesktop}, clock)
	mobile := Generate(Params{Sites: 10, Seed: 4, Profile: ProfileMobile}, clock)
	var dBytes, mBytes, dRes, mRes float64
	for i := range desktop.Sites {
		dBytes += float64(desktop.Sites[i].TotalBytes())
		mBytes += float64(mobile.Sites[i].TotalBytes())
		dRes += float64(desktop.Sites[i].NumResources())
		mRes += float64(mobile.Sites[i].NumResources())
	}
	if mBytes >= dBytes {
		t.Fatalf("mobile bytes %.0f not lighter than desktop %.0f", mBytes, dBytes)
	}
	if mRes >= dRes {
		t.Fatalf("mobile resources %.0f not fewer than desktop %.0f", mRes, dRes)
	}
	// Mobile pages still land in a plausible band (~1.5-2.5 MB).
	meanMobile := mBytes / 10
	if meanMobile < 0.8e6 || meanMobile > 3e6 {
		t.Fatalf("mobile mean page weight %.0f outside band", meanMobile)
	}
	if ProfileMobile.String() != "mobile" || ProfileDesktop.String() != "desktop" {
		t.Fatal("profile strings wrong")
	}
}

func TestSecondaryPageSharesTemplate(t *testing.T) {
	clock := vclock.NewVirtual(vclock.Epoch)
	site := smallCorpus(clock).Sites[0]
	index, ok := site.Content().Get(PagePath)
	if !ok {
		t.Fatal("no homepage")
	}
	about, ok := site.Content().Get(SecondaryPagePath)
	if !ok {
		t.Fatal("no secondary page")
	}
	indexRefs := map[string]bool{}
	for _, r := range htmlparse.ExtractFromHTML(string(index.Body)) {
		indexRefs[r.URL] = true
	}
	var shared, own int
	for _, r := range htmlparse.ExtractFromHTML(string(about.Body)) {
		if indexRefs[r.URL] {
			shared++
		} else {
			own++
		}
		// Every reference must be servable.
		if strings.HasPrefix(r.URL, "https://") {
			continue
		}
		if _, ok := site.Content().Get(r.URL); !ok {
			t.Errorf("secondary page references unservable %q", r.URL)
		}
	}
	if shared == 0 {
		t.Fatal("secondary page shares nothing with the homepage")
	}
	if own == 0 {
		t.Fatal("secondary page has no unique resources")
	}
	if shared < own {
		t.Fatalf("template sharing too weak: shared=%d own=%d", shared, own)
	}
}

func TestStatsCalibration(t *testing.T) {
	clock := vclock.NewVirtual(vclock.Epoch)
	c := Generate(Params{Sites: 40, Seed: 5}, clock)
	day := 24 * time.Hour
	st := c.Stats([]time.Duration{day})

	within := func(name string, got, lo, hi float64) {
		t.Helper()
		if got < lo || got > hi {
			t.Errorf("%s = %.3f outside [%.2f, %.2f]", name, got, lo, hi)
		}
	}
	// §2 calibration targets, with sampling slack.
	within("FracShortTTL", st.FracShortTTL, 0.32, 0.48)                            // paper: 40%
	within("ShortTTLUnchangedWithin24h", st.ShortTTLUnchangedWithin24h, 0.70, 1.0) // paper: 86%
	within("SpuriousExpiry@1d", st.SpuriousExpiry[day], 0.30, 0.70)                // paper: 47%
	within("FracReusableNoValidation", st.FracReusableNoValidation, 0.40, 0.60)    // paper: ~50%
	within("FracNoStore", st.FracNoStore, 0.08, 0.22)
	within("FracNoCache", st.FracNoCache, 0.08, 0.22)
	if st.String() == "" {
		t.Error("empty stats string")
	}
}

func TestFingerprintedAssets(t *testing.T) {
	clock := vclock.NewVirtual(vclock.Epoch)
	c := Generate(Params{Sites: 4, Seed: 13, FingerprintFrac: 1.0}, clock)
	site := c.Sites[0]

	page, _ := site.Content().Get(PagePath)
	rs := htmlparse.ExtractFromHTML(string(page.Body))
	stamped := 0
	for _, r := range rs {
		if !strings.Contains(r.URL, "?v=") {
			continue
		}
		stamped++
		// The stamped URL must be servable and carry an ETag.
		res, ok := site.Content().Get(r.URL)
		if !ok {
			t.Fatalf("stamped URL %q unservable", r.URL)
		}
		if res.ETag.IsZero() {
			t.Fatalf("stamped URL %q has no ETag", r.URL)
		}
		if res.Policy.MaxAge < 300*24*time.Hour {
			t.Fatalf("fingerprinted asset %q lacks immutable TTL: %+v", r.URL, res.Policy)
		}
	}
	if stamped == 0 {
		t.Fatal("no stamped references with FingerprintFrac=1")
	}

	// When a fingerprinted asset's content changes, the page must
	// reference a new URL (and the page's own ETag must change even if the
	// page body proper did not).
	before := map[string]bool{}
	for _, r := range rs {
		before[r.URL] = true
	}
	tagBefore := page.ETag
	clock.Advance(120 * 24 * time.Hour) // far enough for JS/CSS churn
	page2, _ := site.Content().Get(PagePath)
	rs2 := htmlparse.ExtractFromHTML(string(page2.Body))
	changedRef := false
	for _, r := range rs2 {
		if strings.Contains(r.URL, "?v=") && !before[r.URL] {
			changedRef = true
		}
	}
	if !changedRef {
		t.Fatal("no stamped reference changed after 120 days")
	}
	if page2.ETag == tagBefore {
		t.Fatal("page ETag did not change with its stamped references")
	}
}

func TestFingerprintDisabledByDefault(t *testing.T) {
	clock := vclock.NewVirtual(vclock.Epoch)
	site := Generate(Params{Sites: 1, Seed: 13}, clock).Sites[0]
	page, _ := site.Content().Get(PagePath)
	if strings.Contains(string(page.Body), "?v=") {
		t.Fatal("stamped URLs present without opt-in")
	}
}
