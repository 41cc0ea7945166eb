// Package webgen generates the synthetic website corpus the evaluation
// runs against — the stand-in for the paper's clones of the 100
// most-visited homepages.
//
// Each generated site is a homepage with a realistic resource tree
// (stylesheets that pull in images and fonts, scripts that fetch further
// scripts and images at runtime, a few cross-origin resources on a CDN
// host), sized to the ≈2.5 MB / "hundreds of small resources" shape the
// paper cites from HTTP Archive, and decorated with the cache-header
// pathologies §2 quantifies:
//
//   - a large share of resources is effectively not cached (no-store, or
//     no explicit freshness at all),
//   - ≈40 % of resources get a TTL under one day, most of which will not
//     change within it,
//   - many resources therefore expire in cache without having changed —
//     the spurious revalidations CacheCatalyst eliminates.
//
// Resources change over virtual time according to per-resource change
// periods, so revisits after the paper's delays (1 min … 1 week) see
// realistic churn. All generation and mutation is deterministic in
// (Seed, site index, virtual time).
package webgen

import (
	"fmt"
	"math/rand"
	"time"

	"cachecatalyst/internal/htmlparse"
	"cachecatalyst/internal/server"
	"cachecatalyst/internal/vclock"
)

// Profile selects the device class the corpus is calibrated to. The paper
// motivates CacheCatalyst with mobile web access, where pages are lighter
// but latency hurts more.
type Profile int

// Profiles.
const (
	// ProfileDesktop matches HTTP-Archive desktop medians (~60+ resources,
	// ~2.5-3 MB).
	ProfileDesktop Profile = iota
	// ProfileMobile matches mobile pages: fewer, smaller resources
	// (~45 resources, ~2 MB).
	ProfileMobile
)

func (p Profile) String() string {
	if p == ProfileMobile {
		return "mobile"
	}
	return "desktop"
}

// Params configures corpus generation.
type Params struct {
	// Sites is the number of sites (the paper uses 100). Zero selects 100.
	Sites int
	// Seed makes the corpus reproducible. Zero selects 1.
	Seed int64
	// Scale multiplies per-page resource counts; 1.0 (selected by zero)
	// is the calibrated default. Unit tests use small scales.
	Scale float64
	// CrossOriginFrac is the fraction of HTML-referenced images hosted on
	// the site's CDN origin. Negative disables; zero selects 0.12.
	CrossOriginFrac float64
	// Profile selects desktop (default) or mobile page shapes.
	Profile Profile
	// FingerprintFrac is the fraction of top-level stylesheets/scripts
	// served the best-practice way: an effectively immutable max-age and a
	// version-stamped URL (?v=N) that changes when the content does. Such
	// assets never need revalidation, so they neutralize CacheCatalyst's
	// advantage — the fingerprinting ablation quantifies how much of the
	// paper's win assumes today's header misconfiguration. Default 0
	// (matching the measured-pathology calibration); negative is 0.
	FingerprintFrac float64
	// BrokenFrac is the fraction of HTML-referenced images that 404 for a
	// while after generation — the page references them before the asset
	// deploy lands, and every scheme's load fails them alike. A broken
	// resource "appears" (flips to 200) at a per-resource delay after the
	// site epoch. Default 0; negative is 0. Zero draws no extra rng values,
	// so existing corpora are byte-identical.
	BrokenFrac float64
}

// profileShape holds the per-profile count ranges and size multiplier.
type profileShape struct {
	cssLo, cssHi   int
	jsLo, jsHi     int
	imgLo, imgHi   int
	fontLo, fontHi int
	sizeMul        float64
}

func shapeFor(p Profile) profileShape {
	if p == ProfileMobile {
		return profileShape{cssLo: 2, cssHi: 5, jsLo: 8, jsHi: 18, imgLo: 14, imgHi: 32, fontLo: 1, fontHi: 2, sizeMul: 0.7}
	}
	return profileShape{cssLo: 3, cssHi: 7, jsLo: 10, jsHi: 24, imgLo: 20, imgHi: 44, fontLo: 1, fontHi: 3, sizeMul: 1.0}
}

func (p Params) withDefaults() Params {
	if p.Sites == 0 {
		p.Sites = 100
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
	if p.Scale == 0 {
		p.Scale = 1.0
	}
	if p.CrossOriginFrac == 0 {
		p.CrossOriginFrac = 0.12
	} else if p.CrossOriginFrac < 0 {
		p.CrossOriginFrac = 0
	}
	if p.FingerprintFrac < 0 {
		p.FingerprintFrac = 0
	}
	if p.BrokenFrac < 0 {
		p.BrokenFrac = 0
	}
	return p
}

// Corpus is a generated set of sites.
type Corpus struct {
	Params Params
	Sites  []*Site
}

// Generate builds a corpus. The clock drives resource mutation: advancing
// it between loads makes resources change at their individual rates, the
// way the paper advanced the system clock between visits.
func Generate(p Params, clock vclock.Clock) *Corpus {
	p = p.withDefaults()
	c := &Corpus{Params: p}
	for i := 0; i < p.Sites; i++ {
		c.Sites = append(c.Sites, generateOne(p, i, clock))
	}
	return c
}

// GenerateOne builds the index-th site of the corpus Generate(p, ·) would
// produce, without materializing the others. Experiment trials use this to
// give every (site, condition) cell its own site instance on its own
// virtual clock while keeping content trajectories identical across
// schemes.
func GenerateOne(p Params, index int, clock vclock.Clock) *Site {
	return generateOne(p.withDefaults(), index, clock)
}

// generateOne assumes p already has defaults applied. Keeping defaulting
// out of this path makes GenerateOne(Generate-normalized params) agree with
// Generate — withDefaults is not idempotent for the CrossOriginFrac
// disable sentinel (-1 → 0, which must not re-default to 0.12).
func generateOne(p Params, index int, clock vclock.Clock) *Site {
	rng := rand.New(rand.NewSource(p.Seed + int64(index)*7919))
	return generateSite(index, p, rng, clock, clock.Now())
}

// appearDelays are the possible deploy lags for BrokenFrac resources:
// how long after the site epoch a broken reference flips to 200.
var appearDelays = []time.Duration{
	30 * time.Minute, 2 * time.Hour, 12 * time.Hour, 48 * time.Hour,
}

// scaled draws lo + rng.Intn(hi-lo+1), scaled.
func scaled(rng *rand.Rand, lo, hi int, scale float64) int {
	n := lo + rng.Intn(hi-lo+1)
	out := int(float64(n) * scale)
	if out < 1 {
		out = 1
	}
	return out
}

// sizeIn draws a size uniformly in [lo, hi] bytes.
func sizeIn(rng *rand.Rand, lo, hi int) int {
	return lo + rng.Intn(hi-lo+1)
}

// drawPolicy assigns the cache-header policy per the §2 calibration.
func drawPolicy(rng *rand.Rand) server.CachePolicy {
	roll := rng.Float64()
	switch {
	case roll < 0.15:
		// Cacheable content shipped uncacheable: the CMS default the
		// paper blames for redundant transfers.
		return server.CachePolicy{NoStore: true}
	case roll < 0.35:
		// No explicit freshness at all; the browser falls back to
		// heuristic freshness from Last-Modified.
		return server.CachePolicy{}
	case roll < 0.50:
		// Always revalidate.
		return server.CachePolicy{NoCache: true}
	default:
		// Explicit TTL; 80% of these (40% of all resources) are under
		// one day, per the study quoted in §2.
		if rng.Float64() < 0.8 {
			short := []time.Duration{
				time.Minute, 5 * time.Minute, 30 * time.Minute,
				time.Hour, 6 * time.Hour, 12 * time.Hour,
			}
			return server.CachePolicy{MaxAge: short[rng.Intn(len(short))], HasMaxAge: true}
		}
		long := []time.Duration{
			2 * 24 * time.Hour, 7 * 24 * time.Hour, 30 * 24 * time.Hour,
		}
		return server.CachePolicy{MaxAge: long[rng.Intn(len(long))], HasMaxAge: true}
	}
}

// drawPeriod assigns the content-change period by resource kind; zero
// means the content never changes.
func drawPeriod(rng *rand.Rand, kind htmlparse.ResourceKind) time.Duration {
	day := 24 * time.Hour
	switch kind {
	case htmlparse.KindDocument:
		// Homepages churn: hours to a few days.
		return 6*time.Hour + time.Duration(rng.Int63n(int64(3*day)))
	case htmlparse.KindStylesheet:
		if rng.Float64() < 0.5 {
			return 0
		}
		return 3*day + time.Duration(rng.Int63n(int64(27*day)))
	case htmlparse.KindScript:
		if rng.Float64() < 0.4 {
			return 0
		}
		return day + time.Duration(rng.Int63n(int64(29*day)))
	case htmlparse.KindImage:
		if rng.Float64() < 0.75 {
			return 0
		}
		return 7*day + time.Duration(rng.Int63n(int64(53*day)))
	default: // fonts, media
		return 0
	}
}

// generateSite builds one site's resource tree.
func generateSite(index int, p Params, rng *rand.Rand, clock vclock.Clock, epoch time.Time) *Site {
	s := newSite(fmt.Sprintf("site%03d.example", index), clock, epoch)

	shape := shapeFor(p.Profile)
	size := func(lo, hi int) int {
		n := int(float64(sizeIn(rng, lo, hi)) * shape.sizeMul)
		if n < 64 {
			n = 64
		}
		return n
	}
	nCSS := scaled(rng, shape.cssLo, shape.cssHi, p.Scale)
	nJS := scaled(rng, shape.jsLo, shape.jsHi, p.Scale)
	nImg := scaled(rng, shape.imgLo, shape.imgHi, p.Scale)
	nFont := scaled(rng, shape.fontLo, shape.fontHi, p.Scale)
	nMedia := rng.Intn(2)
	if p.Scale < 0.3 || p.Profile == ProfileMobile {
		nMedia = 0
	}

	newSpec := func(path string, kind htmlparse.ResourceKind, size int) *resourceSpec {
		return &resourceSpec{
			path:     path,
			kind:     kind,
			size:     size,
			policy:   drawPolicy(rng),
			period:   drawPeriod(rng, kind),
			phase:    time.Duration(rng.Int63()),
			ageAtGen: 24*time.Hour + time.Duration(rng.Int63n(int64(300*24*time.Hour))),
		}
	}

	// Images: 60% referenced directly from HTML, 15% from CSS, 25%
	// JS-discovered (invisible to the server's static extraction).
	var htmlImgs, cssImgs, jsImgs []*resourceSpec
	for i := 0; i < nImg; i++ {
		img := newSpec(fmt.Sprintf("/img/i%02d.png", i), htmlparse.KindImage, size(5_000, 120_000))
		switch {
		case i < nImg*60/100:
			if rng.Float64() < p.CrossOriginFrac {
				img.crossOrigin = true
			}
			// Guarded so a zero BrokenFrac draws nothing: existing seeds
			// must keep producing byte-identical corpora.
			if p.BrokenFrac > 0 && rng.Float64() < p.BrokenFrac {
				img.appearsAfter = appearDelays[rng.Intn(len(appearDelays))]
			}
			htmlImgs = append(htmlImgs, img)
		case i < nImg*75/100:
			cssImgs = append(cssImgs, img)
		default:
			jsImgs = append(jsImgs, img)
		}
		s.add(img)
	}

	// Fonts: referenced from the first stylesheet.
	var fonts []*resourceSpec
	for i := 0; i < nFont; i++ {
		f := newSpec(fmt.Sprintf("/fonts/f%d.woff2", i), htmlparse.KindFont, size(25_000, 60_000))
		fonts = append(fonts, f)
		s.add(f)
	}

	// Stylesheets; some have a child stylesheet via @import.
	year := server.CachePolicy{MaxAge: 365 * 24 * time.Hour, HasMaxAge: true}
	var cssTop []*resourceSpec
	cssImgIdx, childIdx := 0, 0
	for i := 0; i < nCSS; i++ {
		css := newSpec(fmt.Sprintf("/css/s%d.css", i), htmlparse.KindStylesheet, size(5_000, 40_000))
		if rng.Float64() < p.FingerprintFrac {
			css.fingerprinted = true
			css.policy = year
		}
		if i == 0 {
			for _, f := range fonts {
				css.refs = append(css.refs, f.path)
			}
		}
		for k := 0; k < 2 && cssImgIdx < len(cssImgs); k++ {
			css.refs = append(css.refs, cssImgs[cssImgIdx].path)
			cssImgIdx++
		}
		if rng.Float64() < 0.3 {
			child := newSpec(fmt.Sprintf("/css/child%d.css", childIdx), htmlparse.KindStylesheet, size(3_000, 15_000))
			childIdx++
			css.imports = append(css.imports, child.path)
			s.add(child)
		}
		cssTop = append(cssTop, css)
		s.add(css)
	}
	// Leftover CSS-assigned images attach to the last stylesheet.
	for ; cssImgIdx < len(cssImgs); cssImgIdx++ {
		cssTop[len(cssTop)-1].refs = append(cssTop[len(cssTop)-1].refs, cssImgs[cssImgIdx].path)
	}

	// Scripts: 70% top-level (in HTML), the rest discovered by executing a
	// parent script, forming the b.js → c.js → d.jpg chains of Figure 1.
	nTopJS := nJS * 70 / 100
	if nTopJS < 1 {
		nTopJS = 1
	}
	var jsTop, jsChild []*resourceSpec
	for i := 0; i < nJS; i++ {
		js := newSpec(fmt.Sprintf("/js/a%02d.js", i), htmlparse.KindScript, size(10_000, 80_000))
		if i < nTopJS {
			js.async = rng.Float64() < 0.4
			if rng.Float64() < p.FingerprintFrac {
				js.fingerprinted = true
				js.policy = year
			}
			jsTop = append(jsTop, js)
		} else {
			jsChild = append(jsChild, js)
		}
		s.add(js)
	}
	// Distribute child scripts and JS-discovered images over parents.
	for i, child := range jsChild {
		parent := jsTop[i%len(jsTop)]
		parent.fetches = append(parent.fetches, child.path)
	}
	for i, img := range jsImgs {
		var parent *resourceSpec
		if len(jsChild) > 0 {
			parent = jsChild[i%len(jsChild)] // depth-2 discovery
		} else {
			parent = jsTop[i%len(jsTop)]
		}
		parent.fetches = append(parent.fetches, img.path)
	}

	// Media (async, e.g. a hero video).
	var media []*resourceSpec
	for i := 0; i < nMedia; i++ {
		m := newSpec(fmt.Sprintf("/media/v%d.mp4", i), htmlparse.KindMedia, size(200_000, 500_000))
		media = append(media, m)
		s.add(m)
	}

	// The homepage.
	page := newSpec(PagePath, htmlparse.KindDocument, size(20_000, 60_000))
	page.policy = server.CachePolicy{NoCache: true} // typical for HTML
	for _, css := range cssTop {
		page.refs = append(page.refs, css.path)
	}
	for _, js := range jsTop {
		page.refs = append(page.refs, js.path)
	}
	for _, img := range htmlImgs {
		if img.crossOrigin {
			page.refs = append(page.refs, "https://"+s.CDNHost+img.path)
		} else {
			page.refs = append(page.refs, img.path)
		}
	}
	for _, m := range media {
		page.refs = append(page.refs, m.path)
	}
	s.add(page)

	// A secondary page on the same site (the paper's "other pages within
	// the same website" scenario): it shares the site-wide assets —
	// stylesheets and scripts, which are exactly what a shared template
	// reuses — plus a handful of page-specific images.
	second := newSpec(SecondaryPagePath, htmlparse.KindDocument, size(15_000, 40_000))
	second.policy = server.CachePolicy{NoCache: true}
	for _, css := range cssTop {
		second.refs = append(second.refs, css.path)
	}
	for _, js := range jsTop {
		second.refs = append(second.refs, js.path)
	}
	// Shared images: the first third of the homepage's image set (header,
	// logo, sprites); the rest of the homepage's images do not appear.
	for i, img := range htmlImgs {
		if i >= len(htmlImgs)/3 {
			break
		}
		if img.crossOrigin {
			second.refs = append(second.refs, "https://"+s.CDNHost+img.path)
		} else {
			second.refs = append(second.refs, img.path)
		}
	}
	// Page-unique images.
	nOwn := scaled(rng, 4, 10, p.Scale)
	for i := 0; i < nOwn; i++ {
		own := newSpec(fmt.Sprintf("/img/about%02d.png", i), htmlparse.KindImage, size(5_000, 80_000))
		s.add(own)
		second.refs = append(second.refs, own.path)
	}
	s.add(second)
	return s
}
