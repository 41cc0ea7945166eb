// Package headers implements parsing and serialization of the HTTP header
// fields the caching machinery depends on: Cache-Control (RFC 9111 §5.2),
// HTTP dates (RFC 9110 §5.6.7), and small helpers shared by the cache,
// server and browser packages.
//
// Only the directives that influence a private (browser) cache are modelled;
// shared-cache-only directives such as s-maxage and proxy-revalidate are
// parsed but carried opaquely.
package headers

import (
	"sort"
	"strconv"
	"strings"
	"time"
)

// CacheControl is a parsed Cache-Control header field.
//
// Durations are represented as time.Duration for convenience; RFC 9111
// expresses them in whole seconds, and serialization truncates accordingly.
type CacheControl struct {
	// NoStore forbids storing any part of the response.
	NoStore bool
	// NoCache allows storing but requires successful validation before
	// every reuse.
	NoCache bool
	// MaxAge is the freshness lifetime. Valid only when HasMaxAge is true
	// (max-age=0 is meaningful and distinct from absent).
	MaxAge    time.Duration
	HasMaxAge bool
	// MustRevalidate forbids serving stale responses after expiry.
	MustRevalidate bool
	// Public marks the response explicitly cacheable by any cache.
	Public bool
	// Private restricts the response to private caches (the only kind we
	// model, so it does not change behaviour, but it round-trips).
	Private bool
	// Immutable promises the response body will not change during its
	// freshness lifetime, suppressing revalidation on reload.
	Immutable bool
	// Extensions holds unrecognized directives verbatim (lowercased name →
	// raw value, empty string when the directive has no argument).
	Extensions map[string]string
}

// ParseCacheControl parses a Cache-Control field value. It is lenient in the
// ways real browsers are: unknown directives are retained as extensions,
// malformed max-age values invalidate only that directive, and directive
// names are case-insensitive.
func ParseCacheControl(v string) CacheControl {
	var cc CacheControl
	for rest := v; rest != ""; {
		var part string
		part, rest, _ = strings.Cut(rest, ",")
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, arg, hasArg := strings.Cut(part, "=")
		name = strings.ToLower(strings.TrimSpace(name))
		arg = strings.TrimSpace(arg)
		arg = strings.Trim(arg, `"`)
		switch name {
		case "no-store":
			cc.NoStore = true
		case "no-cache":
			cc.NoCache = true
		case "must-revalidate":
			cc.MustRevalidate = true
		case "public":
			cc.Public = true
		case "private":
			cc.Private = true
		case "immutable":
			cc.Immutable = true
		case "max-age":
			if !hasArg {
				continue
			}
			secs, err := strconv.ParseInt(arg, 10, 64)
			if err != nil || secs < 0 {
				// RFC 9111 §4.2.1: caches are encouraged to treat
				// unparseable freshness information as stale.
				cc.MaxAge = 0
				cc.HasMaxAge = true
				continue
			}
			cc.MaxAge = time.Duration(secs) * time.Second
			cc.HasMaxAge = true
		default:
			if cc.Extensions == nil {
				cc.Extensions = make(map[string]string)
			}
			cc.Extensions[name] = arg
		}
	}
	return cc
}

// String serializes the directives in canonical order. The output parses
// back to an equivalent CacheControl.
func (cc CacheControl) String() string {
	var parts []string
	if cc.NoStore {
		parts = append(parts, "no-store")
	}
	if cc.NoCache {
		parts = append(parts, "no-cache")
	}
	if cc.HasMaxAge {
		parts = append(parts, "max-age="+strconv.FormatInt(int64(cc.MaxAge/time.Second), 10))
	}
	if cc.MustRevalidate {
		parts = append(parts, "must-revalidate")
	}
	if cc.Public {
		parts = append(parts, "public")
	}
	if cc.Private {
		parts = append(parts, "private")
	}
	if cc.Immutable {
		parts = append(parts, "immutable")
	}
	if len(cc.Extensions) > 0 {
		names := make([]string, 0, len(cc.Extensions))
		for n := range cc.Extensions {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			if v := cc.Extensions[n]; v != "" {
				parts = append(parts, n+"="+v)
			} else {
				parts = append(parts, n)
			}
		}
	}
	return strings.Join(parts, ", ")
}

// IsZero reports whether no directive is set.
func (cc CacheControl) IsZero() bool {
	return !cc.NoStore && !cc.NoCache && !cc.HasMaxAge && !cc.MustRevalidate &&
		!cc.Public && !cc.Private && !cc.Immutable && len(cc.Extensions) == 0
}

// FormatHTTPDate renders t in the IMF-fixdate form required by RFC 9110
// (e.g. "Mon, 18 Nov 2024 00:00:00 GMT").
func FormatHTTPDate(t time.Time) string {
	return t.UTC().Format(httpTimeFormat)
}

// ParseHTTPDate parses the three date forms RFC 9110 §5.6.7 requires
// recipients to accept. The boolean reports success. An IMF-fixdate as
// FormatHTTPDate writes it is read at fixed offsets, anything else by
// time.Parse.
func ParseHTTPDate(s string) (time.Time, bool) {
	if t, ok := parseIMFFixdate(s); ok {
		return t, true
	}
	for _, layout := range []string{httpTimeFormat, time.RFC850, time.ANSIC} {
		if t, err := time.Parse(layout, s); err == nil {
			return t, true
		}
	}
	return time.Time{}, false
}

const httpTimeFormat = "Mon, 02 Jan 2006 15:04:05 GMT"

// parseIMFFixdate reads s when it is exactly httpTimeFormat's shape (names
// in that letter case, every field in range: a day past its month's end
// normalizes to another day, and is refused) as time.Parse(httpTimeFormat,
// s) does, and declines anything else, well formed or not, with ok false.
func parseIMFFixdate(s string) (t time.Time, ok bool) {
	if len(s) != len(httpTimeFormat) || s[3:5] != ", " || s[7] != ' ' || s[11] != ' ' ||
		s[16] != ' ' || s[19] != ':' || s[22] != ':' || s[25:] != " GMT" {
		return time.Time{}, false
	}
	var n [6]int // day, century, year of century, hour, minute, second
	for i, at := range [6]int{5, 12, 14, 17, 20, 23} {
		hi, lo := s[at]-'0', s[at+1]-'0'
		if hi > 9 || lo > 9 {
			return time.Time{}, false
		}
		n[i] = int(hi)*10 + int(lo)
	}
	wd, mon := strings.Index("MonTueWedThuFriSatSun", s[:3]), strings.Index("JanFebMarAprMayJunJulAugSepOctNovDec", s[8:11])
	if wd%3 != 0 || mon%3 != 0 || n[3] > 23 || n[4] > 59 || n[5] > 59 {
		return time.Time{}, false
	}
	t = time.Date(n[1]*100+n[2], time.Month(mon/3+1), n[0], n[3], n[4], n[5], 0, time.UTC)
	return t, t.Day() == n[0]
}
