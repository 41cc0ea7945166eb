package httpcache

import "unsafe"

// Text returns the body as a string that shares the body's bytes instead of
// copying them, for the parsers the browser and the bundler run over every
// HTML, CSS and script body they receive.
//
// It is the repository's one non-test use of unsafe, and the ownership rule
// on Response is what makes it sound: a body is never written after it
// enters a Response, so the string is as immutable as Go requires. The
// string, and any substring a parser keeps, holds the body alive for as long
// as it is referenced.
func (r *Response) Text() string {
	return unsafe.String(unsafe.SliceData(r.Body), len(r.Body))
}
