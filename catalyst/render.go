package catalyst

import (
	"bytes"
	"strconv"
	"strings"

	"cachecatalyst/internal/core"
	"cachecatalyst/internal/etag"
)

// render is everything about one decorated page that is a pure function of
// its URL and raw HTML: the extracted subresource references, the
// snippet-injected body, that body's validator, and the wire forms the
// serve path would otherwise re-render per request. Immutable after
// construction and shared across requests — including the header value
// slices, which are assigned into response header maps directly; nothing in
// net/http or this repository mutates a stored value slice in place.
type render struct {
	Refs []core.Ref
	// Body is the entity actually sent, so Tag is derived from it and not
	// from the raw page. Never written to.
	Body []byte
	Tag  etag.Tag
	// TagStr is Tag.String(); EtagHeader and ClenHeader are the
	// single-element "Etag" and "Content-Length" values.
	TagStr     string
	EtagHeader []string
	ClenHeader []string
	// snipAt and snipLen locate the injected snippet in Body (snipLen 0 when
	// the raw page already carried it): the raw page is
	// Body[:snipAt] + Body[snipAt+snipLen:], which is how isRenderOf
	// recognises it without a second copy.
	snipAt, snipLen int
}

// newRender runs parse → extract → inject → hash for one (pageURL, raw)
// pair.
func newRender(pageURL, raw string) render {
	at, gap := core.RegistrationOffset(raw)
	body := make([]byte, 0, len(raw)+gap)
	body = append(append(append(body, raw[:at]...), core.RegistrationSnippet[:gap]...), raw[at:]...)
	tag := etag.ForBytes(body)
	tagStr := tag.String()
	return render{
		Refs:       core.ExtractPageRefs(pageURL, raw),
		Body:       body,
		Tag:        tag,
		TagStr:     tagStr,
		EtagHeader: []string{tagStr},
		ClenHeader: []string{strconv.Itoa(len(body))},
		snipAt:     at,
		snipLen:    gap,
	}
}

// isRenderOf reports whether raw is, byte for byte, the page rd was rendered
// from. Injection is a pure insertion, so comparing raw against Body on
// either side of the snippet is the same equality as comparing it against a
// retained copy of the raw page — exact, allocation-free, and one memcmp's
// worth of work.
func (rd *render) isRenderOf(raw []byte) bool {
	at, rest := rd.snipAt, rd.snipAt+rd.snipLen
	return len(raw) == len(rd.Body)-rd.snipLen &&
		bytes.Equal(raw[:at], rd.Body[:at]) && bytes.Equal(raw[at:], rd.Body[rest:])
}

// raw returns, in a fresh slice, the page rd was rendered from: Body without
// the injected snippet.
func (rd *render) raw() []byte {
	at, rest := rd.snipAt, rd.snipAt+rd.snipLen
	return append(append(make([]byte, 0, len(rd.Body)-rd.snipLen), rd.Body[:at]...), rd.Body[rest:]...)
}

// extractCSSRefs is the middleware's one extraction of a stylesheet's
// references: of a probe's text on every resolve, of a Content stylesheet
// version once per RenderMemo. Tests wrap it to count the extractions.
var extractCSSRefs = core.ExtractCSSRefs

// isCSS reports whether a content type is a stylesheet — the responses a
// resolve inspects recursively.
func isCSS(contentType string) bool { return strings.HasPrefix(contentType, "text/css") }
