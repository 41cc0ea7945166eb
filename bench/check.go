package main

import (
	"fmt"
	"net/http"

	"cachecatalyst/catalyst"
)

// minMapCoverage is the share of a page's same-origin references its
// X-Etag-Config must name. It is below 1 because a probe may legitimately
// fail or be shed; it is far above what a "speed-up" that drops entries
// would leave.
const minMapCoverage = 0.9

// check judges one response against what the origin holds. Every response
// of every phase goes through it; a failure counts against the run.
func (c *conn) check(rq request, status int, hdr http.Header, bodyLen int) error {
	res := rq.res
	name := rq.host + res.path
	tag := hdr.Get("Etag")
	switch status {
	case http.StatusNotModified:
		if rq.inm == "" {
			return fmt.Errorf("%s: 304 to an unconditional request", name)
		}
		if bodyLen != 0 {
			return fmt.Errorf("%s: 304 with a %d-byte body", name, bodyLen)
		}
	case http.StatusOK:
		if rq.inm != "" {
			// Only a change at the origin between choosing the request
			// and serving it explains a 200 here.
			if !rq.mutable || tag == rq.inm {
				return fmt.Errorf("%s: 200 to a matching If-None-Match %s", name, rq.inm)
			}
		}
	default:
		return fmt.Errorf("%s: status %d", name, status)
	}

	if !res.html {
		if status == http.StatusOK {
			want, issued := res.issuedLen(tag)
			if !issued {
				return fmt.Errorf("%s: Etag %s was never issued by the origin", name, tag)
			}
			if bodyLen != want {
				return fmt.Errorf("%s: %d-byte body for Etag %s, origin's is %d", name, bodyLen, tag, want)
			}
		}
		return nil
	}

	if status == http.StatusOK {
		if bodyLen < len(res.current().body) && !rq.mutable {
			return fmt.Errorf("%s: %d-byte page, shorter than the origin's %d", name, bodyLen, len(res.current().body))
		}
		if tag == "" {
			return fmt.Errorf("%s: HTML 200 without an Etag", name)
		}
		c.learned[res] = tag
	}
	enc := hdr.Get(catalyst.HeaderName)
	if enc == "" {
		// A 304 carries the map too: it is how a revisiting client learns
		// which of its cached subresources are still current.
		return fmt.Errorf("%s: HTML %d without %s", name, status, catalyst.HeaderName)
	}
	if c.verified[res] == enc {
		return nil
	}
	if err := checkMap(rq.site, res, enc); err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	c.verified[res] = enc
	return nil
}

// checkMap decodes an X-Etag-Config value with the public decoder and
// holds it against the origin: every entry must name a path of the site
// with a tag the origin has at some time issued for it, and the map must
// cover the page's own references.
func checkMap(s *site, page *resource, enc string) error {
	m, err := catalyst.DecodeMap(enc)
	if err != nil {
		return fmt.Errorf("%s does not decode: %w", catalyst.HeaderName, err)
	}
	for path, t := range m {
		r, ok := s.res[path]
		if !ok {
			return fmt.Errorf("map names %s, which the site does not have", path)
		}
		if _, issued := r.issuedLen(t.String()); !issued {
			return fmt.Errorf("map gives %s the tag %s, which the origin never issued", path, t)
		}
	}
	covered := 0
	for _, ref := range page.refs {
		if _, ok := m[ref]; ok {
			covered++
		}
	}
	if float64(covered) < minMapCoverage*float64(len(page.refs)) {
		return fmt.Errorf("map covers %d of the page's %d references", covered, len(page.refs))
	}
	return nil
}
