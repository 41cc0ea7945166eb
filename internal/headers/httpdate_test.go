package headers

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

// timeParseHTTPDate is the reference ParseHTTPDate is held to: the three
// RFC 9110 §5.6.7 layouts tried in turn through time.Parse, with no
// fixed-offset reader in front.
func timeParseHTTPDate(s string) (time.Time, bool) {
	for _, layout := range []string{httpTimeFormat, time.RFC850, time.ANSIC} {
		if t, err := time.Parse(layout, s); err == nil {
			return t, true
		}
	}
	return time.Time{}, false
}

// checkDate holds ParseHTTPDate to the reference on s: what the fixed-offset
// reader accepts, time.Parse(httpTimeFormat, s) reads as the very same
// time.Time (==, location included), and whatever it declines gets the
// reference's answer (the same instant in a zone of the same name: the
// RFC 850 and ANSI C layouts make a new zone on every call). It reports
// whether the reader accepted s.
func checkDate(t *testing.T, s string) bool {
	t.Helper()
	got, ok := ParseHTTPDate(s)
	if want, wantOK := timeParseHTTPDate(s); ok != wantOK || !got.Equal(want) || got.Location().String() != want.Location().String() {
		t.Fatalf("ParseHTTPDate(%q) = %v, %v; time.Parse reads %v, %v", s, got, ok, want, wantOK)
	}
	fast, fastOK := parseIMFFixdate(s)
	if !fastOK {
		return false
	}
	if want, err := time.Parse(httpTimeFormat, s); err != nil || fast != want {
		t.Fatalf("the fixed-offset reader reads %q as %v; time.Parse reads %v, %v", s, fast, want, err)
	}
	return true
}

// TestIMFFixdateReaderMatchesTimeParseQuick: three properties over the
// fixed-offset reader.
//   - Every second of years 0 to 9999, formatted, is read by it as itself.
//   - Dates assembled from fields that may be out of range (day 0 to 39 of
//     any month, hour to 29, minute and second to 69, names in any letter
//     case) are read as time.Parse reads them or declined.
//   - A formatted date with one byte replaced is read as time.Parse reads
//     it or declined.
func TestIMFFixdateReaderMatchesTimeParseQuick(t *testing.T) {
	cfg := &quick.Config{MaxCount: 20000, Rand: rand.New(rand.NewSource(1))}
	const span = 10000 * 366 * 24 * 3600
	epoch := time.Date(0, time.January, 1, 0, 0, 0, 0, time.UTC).Unix()
	instant := func(sec uint64) time.Time { return time.Unix(epoch+int64(sec%span), 0).UTC() }

	if err := quick.Check(func(sec uint64) bool {
		want := instant(sec)
		if want.Year() > 9999 {
			return true
		}
		s := FormatHTTPDate(want)
		got, ok := parseIMFFixdate(s)
		return ok && got == want && checkDate(t, s)
	}, cfg); err != nil {
		t.Fatal("a formatted date is not read back as itself:", err)
	}

	fields := func(wd, day, mon, year, hour, minute, sec, caseMask uint16) string {
		dn, mn := "MonTueWedThuFriSatSun"[wd%7*3:][:3], "JanFebMarAprMayJunJulAugSepOctNovDec"[mon%12*3:][:3]
		if caseMask&1 != 0 {
			dn = strings.ToLower(dn)
		}
		if caseMask&2 != 0 {
			mn = strings.ToUpper(mn)
		}
		return fmt.Sprintf("%s, %02d %s %04d %02d:%02d:%02d GMT", dn, day%40, mn, year%10000, hour%30, minute%70, sec%70)
	}
	if err := quick.Check(func(wd, day, mon, year, hour, minute, sec, caseMask uint16) bool {
		checkDate(t, fields(wd, day, mon, year, hour, minute, sec, caseMask%8))
		return true
	}, cfg); err != nil {
		t.Fatal(err)
	}
	// The rare cases the random fields seldom reach, each time.Parse's to
	// refuse: the 29th of February of a non-leap year, the 31st of a
	// 30-day month, the 60th second.
	for _, s := range []string{fields(0, 29, 1, 2023, 0, 0, 0, 0), fields(0, 29, 1, 1900, 0, 0, 0, 0), fields(0, 31, 3, 2024, 0, 0, 0, 0), fields(0, 1, 0, 2024, 0, 0, 60, 0)} {
		if checkDate(t, s) {
			t.Errorf("the fixed-offset reader accepted %q, which time.Parse refuses", s)
		}
	}

	if err := quick.Check(func(sec uint64, at uint8, b byte) bool {
		s := []byte(FormatHTTPDate(instant(sec)))
		s[int(at)%len(s)] = b
		checkDate(t, string(s))
		return true
	}, cfg); err != nil {
		t.Fatal(err)
	}
}

// FuzzParseHTTPDate: ParseHTTPDate gives exactly what the three layouts
// through time.Parse give, and the fixed-offset reader, where it accepts,
// what time.Parse(httpTimeFormat) gives.
func FuzzParseHTTPDate(f *testing.F) {
	for _, s := range []string{
		"Sun, 06 Nov 1994 08:49:37 GMT",  // the RFC 9110 example
		"sun, 06 nov 1994 08:49:37 GMT",  // names in lower case
		"SUN, 06 NOV 1994 08:49:37 GMT",  // and in upper case
		"Wed, 29 Feb 2023 00:00:00 GMT",  // Feb 29 of a non-leap year
		"Thu, 29 Feb 2024 00:00:00 GMT",  // and of a leap year
		"Mon, 29 Feb 1900 00:00:00 GMT",  // a century that is not leap
		"Tue, 29 Feb 2000 00:00:00 GMT",  // one that is
		"Sat, 31 Jun 2024 12:00:00 GMT",  // the 31st of a 30-day month
		"Sun, 30 Jun 2024 23:59:60 GMT",  // second 60
		"Sun, 30 Jun 2024 24:00:00 GMT",  // hour 24
		"Sun,  06 Nov 1994 08:49:37 GMT", // doubled spaces
		"Sun, 06 Nov 1994  8:49:37 GMT",
		"Sun, 06 Nov 1994 8:49:37 GMT",  // a one-digit hour
		"Fri, 06 Nov 1994 08:49:37 GMT", // a weekday the date is not
		"Sun, 06 Nov 1994 08:49:37 UTC",
		"Sun, 06 Nov 1994 08:49:37 GMT ",
		"Sun, 06 Nov 0000 00:00:00 GMT",
		"Sunday, 06-Nov-94 08:49:37 GMT", // RFC 850
		"Sun Nov  6 08:49:37 1994",       // ANSI C asctime
		"Sun, 0a Nov 1994 08:49:37 GMT",
		"", "0", "-1", "Sun, 06 Nov 1994 08:49:37 GMT\x00",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) { checkDate(t, s) })
}
