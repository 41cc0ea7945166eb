package httpcache

import (
	"net/http"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"cachecatalyst/internal/headers"
	"cachecatalyst/internal/vclock"
)

// rfcFresh is the RFC 9111 §4.2 freshness check as the cache used to run it
// on every lookup, from the stored header and exchange times: the reference
// the freshness computed at store time must agree with.
func rfcFresh(h http.Header, requestTime, responseTime, now time.Time) bool {
	cc := headers.ParseCacheControl(headers.Value(h, "Cache-Control"))
	if cc.NoCache {
		return false
	}
	lifetime := rfcLifetime(h, cc, responseTime)
	if lifetime <= 0 {
		return false
	}
	return rfcInitialAge(h, requestTime, responseTime)+now.Sub(responseTime) < lifetime
}

// rfcLifetime is §4.2.1: max-age, then Expires − Date, then the heuristic.
func rfcLifetime(h http.Header, cc headers.CacheControl, responseTime time.Time) time.Duration {
	if cc.HasMaxAge {
		return cc.MaxAge
	}
	date := rfcDate(h, responseTime)
	if expires := headers.Value(h, "Expires"); expires != "" {
		if t, ok := headers.ParseHTTPDate(expires); ok {
			return t.Sub(date)
		}
		return 0
	}
	if lm := headers.Value(h, "Last-Modified"); lm != "" {
		if t, ok := headers.ParseHTTPDate(lm); ok && date.After(t) {
			return time.Duration(float64(date.Sub(t)) * heuristicFraction)
		}
	}
	return 0
}

// rfcInitialAge is §4.2.3's corrected initial age.
func rfcInitialAge(h http.Header, requestTime, responseTime time.Time) time.Duration {
	var ageValue time.Duration
	if ageHdr := headers.Value(h, "Age"); ageHdr != "" {
		if d, err := time.ParseDuration(ageHdr + "s"); err == nil && d >= 0 {
			ageValue = d
		}
	}
	apparentAge := responseTime.Sub(rfcDate(h, responseTime))
	if apparentAge < 0 {
		apparentAge = 0
	}
	correctedAge := ageValue + responseTime.Sub(requestTime)
	if correctedAge > apparentAge {
		return correctedAge
	}
	return apparentAge
}

// rfcDate is the response's Date, defaulting to the response time.
func rfcDate(h http.Header, responseTime time.Time) time.Time {
	if d := headers.Value(h, "Date"); d != "" {
		if t, ok := headers.ParseHTTPDate(d); ok {
			return t
		}
	}
	return responseTime
}

// headerDraw is one random header of the fields freshness reads. Each
// field's kind, taken mod 3, is absent, valid or malformed; offsets are
// seconds from the draw's base instant.
type headerDraw struct {
	CacheControl uint8 // bit 0: max-age, bit 1: no-cache
	MaxAge       uint16
	Expires      uint8
	ExpiresOff   int16
	LastModified uint8
	LastModOff   int32
	Date         uint8
	DateOff      int16
	Age          uint8
	AgeValue     uint16
}

func (d headerDraw) header(base time.Time) http.Header {
	h := make(http.Header)
	date := func(kind uint8, off int64) (string, bool) {
		switch kind % 3 {
		case 1:
			return headers.FormatHTTPDate(base.Add(time.Duration(off) * time.Second)), true
		case 2:
			return "0", true
		}
		return "", false
	}
	var cc []string
	if d.CacheControl&1 != 0 {
		cc = append(cc, "max-age="+strconv.Itoa(int(d.MaxAge)))
	}
	if d.CacheControl&2 != 0 {
		cc = append(cc, "no-cache")
	}
	if len(cc) > 0 {
		h["Cache-Control"] = []string{strings.Join(cc, ", ")}
	}
	if v, ok := date(d.Expires, int64(d.ExpiresOff)); ok {
		h["Expires"] = []string{v}
	}
	if v, ok := date(d.LastModified, int64(d.LastModOff)); ok {
		h["Last-Modified"] = []string{v}
	}
	if v, ok := date(d.Date, int64(d.DateOff)); ok {
		h["Date"] = []string{v}
	}
	switch d.Age % 3 {
	case 1:
		h["Age"] = []string{strconv.Itoa(int(d.AgeValue))}
	case 2:
		h["Age"] = []string{"-3"}
	}
	return h
}

// exchange is one random request/response pair of instants: the request
// leaves ReqAfter seconds after the base instant and the response takes
// Delay milliseconds.
type exchange struct {
	ReqAfter uint16
	Delay    uint16
}

func (x exchange) times(base time.Time) (req, resp time.Time) {
	req = base.Add(time.Duration(x.ReqAfter) * time.Second)
	return req, req.Add(time.Duration(x.Delay) * time.Millisecond)
}

// TestStoreTimeFreshnessMatchesRFCQuick: the freshness lifetime and
// corrected initial age a Put computes once give the verdict the per-lookup
// §4.2 computation gives, at every lookup instant and either side of expiry;
// and a Refresh re-derives
// both from the merged header and the 304's exchange times, with the 304
// drawn to move Date, Cache-Control, Expires, Last-Modified and Age too.
func TestStoreTimeFreshnessMatchesRFCQuick(t *testing.T) {
	var movedDate, movedCC, flipped int
	f := func(stored, notModified headerDraw, put, refresh exchange, before, after []uint16) bool {
		base := vclock.Epoch
		clk := vclock.NewVirtual(base)
		c := New(clk)
		req, resp := put.times(base)
		h := stored.header(base)
		c.Put("/x", &Response{StatusCode: http.StatusOK, Header: h, Body: []byte("b")}, req, resp)

		agrees := func(h http.Header, req, resp time.Time, steps []uint16) bool {
			e, _ := c.Peek("/x")
			cc := headers.ParseCacheControl(headers.Value(h, "Cache-Control"))
			wantLifetime := rfcLifetime(h, cc, resp)
			if cc.NoCache {
				wantLifetime = 0
			}
			if e.lifetime != wantLifetime || e.initialAge != rfcInitialAge(h, req, resp) {
				t.Logf("stored %v: lifetime %v, initial age %v; want %v, %v",
					h, e.lifetime, e.initialAge, wantLifetime, rfcInitialAge(h, req, resp))
				return false
			}
			// The instants either side of expiry, which random steps
			// rarely land on.
			expiry := resp.Add(e.lifetime - e.initialAge)
			for _, at := range []time.Time{expiry.Add(-time.Nanosecond), expiry} {
				if e.fresh(at) != rfcFresh(h, req, resp, at) {
					t.Logf("stored %v, at %v: fresh=%v, the per-lookup check disagrees", h, at, e.fresh(at))
					return false
				}
			}
			for _, s := range steps {
				clk.Advance(time.Duration(s) * time.Second)
				_, state := c.Get("/x")
				if want := rfcFresh(h, req, resp, clk.Now()); (state == Fresh) != want {
					t.Logf("stored %v, at %v: %v, the per-lookup check says fresh=%v", h, clk.Now(), state, want)
					return false
				}
			}
			return true
		}
		if !agrees(h, req, resp, before) {
			return false
		}

		nmBase := clk.Now()
		nm := notModified.header(nmBase)
		merged := headers.MergeNotModified(nil, h, nm)
		req, resp = refresh.times(nmBase)
		wasFresh := rfcFresh(h, req, resp, resp)
		c.Refresh("/x", &Response{StatusCode: http.StatusNotModified, Header: nm}, req, resp)
		if e, _ := c.Peek("/x"); !reflect.DeepEqual(e.Response.Header, merged) {
			t.Logf("refreshed header %v, want the merge %v", e.Response.Header, merged)
			return false
		}
		if _, ok := nm["Date"]; ok {
			movedDate++
		}
		if _, ok := nm["Cache-Control"]; ok {
			movedCC++
		}
		if rfcFresh(merged, req, resp, resp) != wasFresh {
			flipped++
		}
		return agrees(merged, req, resp, after)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
	if movedDate == 0 || movedCC == 0 || flipped == 0 {
		t.Fatalf("of the drawn 304s, %d moved Date, %d moved Cache-Control and %d changed the verdict; the draw misses the refresh cases",
			movedDate, movedCC, flipped)
	}
}
