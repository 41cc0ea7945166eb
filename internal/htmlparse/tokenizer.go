// Package htmlparse implements an HTML tokenizer, a lightweight tree
// builder, and resource-link extraction.
//
// The paper's modified Caddy "traverses the entire DOM and extracts all
// resource links" before serving a page. The standard library has no HTML
// parser, so this package implements the subset of the WHATWG HTML parsing
// algorithm that matters for that job: tag/attribute tokenization with
// entity decoding, raw-text elements (script, style, title, textarea),
// comments, doctypes, and a forgiving tree builder. It is not a rendering
// engine; it is a faithful link harvester.
//
// The serving paths do not build the tree: ExtractPage runs the tree
// builder's open-element rules over the token stream and yields exactly
// what ExtractResources and BaseHref read off Parse's tree.
package htmlparse

import (
	"strconv"
	"strings"
)

// TokenType identifies a lexical token.
type TokenType int

// Token types produced by the Tokenizer.
const (
	TextToken TokenType = iota
	StartTagToken
	EndTagToken
	SelfClosingTagToken
	CommentToken
	DoctypeToken
)

func (t TokenType) String() string {
	switch t {
	case TextToken:
		return "Text"
	case StartTagToken:
		return "StartTag"
	case EndTagToken:
		return "EndTag"
	case SelfClosingTagToken:
		return "SelfClosingTag"
	case CommentToken:
		return "Comment"
	case DoctypeToken:
		return "Doctype"
	}
	return "Unknown"
}

// Attr is a single name/value attribute pair. Name is lowercased; Value has
// character references decoded.
type Attr struct {
	Name  string
	Value string
}

// Token is a lexical token. For tag tokens, Data is the lowercased tag name;
// for text and comments it is the (decoded, for text) content.
type Token struct {
	Type  TokenType
	Data  string
	Attrs []Attr
	// Offset is the byte offset of the token's first byte in the input.
	Offset int
}

// Attr returns the value of the named attribute and whether it is present.
func (t *Token) Attr(name string) (string, bool) { return attr(t.Attrs, name) }

func attr(attrs []Attr, name string) (string, bool) {
	for _, a := range attrs {
		if a.Name == name {
			return a.Value, true
		}
	}
	return "", false
}

// isRawText reports whether tag switches the tokenizer into raw-text mode:
// the element's content is opaque until the matching close tag.
func isRawText(tag string) bool {
	switch tag {
	case "script", "style", "textarea", "title", "xmp", "noscript":
		return true
	}
	return false
}

// Tokenizer yields tokens from HTML input. It never fails: malformed markup
// degrades to text, the same recovery browsers perform.
type Tokenizer struct {
	in  string
	pos int
	// pending raw text element name; when set, the next token is the raw
	// content up to its close tag.
	rawTag string
	// reuseAttrs hands every tag token the same attribute backing array,
	// for a caller that is done with a token before asking for the next.
	reuseAttrs bool
	attrs      []Attr
}

// NewTokenizer returns a tokenizer over the given input.
func NewTokenizer(input string) *Tokenizer {
	return &Tokenizer{in: input}
}

// Next returns the next token. The boolean is false at end of input.
func (z *Tokenizer) Next() (Token, bool) {
	if z.pos >= len(z.in) {
		return Token{}, false
	}
	if z.rawTag != "" {
		return z.nextRawText(), true
	}
	if z.in[z.pos] == '<' {
		if tok, ok := z.nextMarkup(); ok {
			return tok, true
		}
		// A lone '<' that opens nothing is text.
	}
	return z.nextText(), true
}

func (z *Tokenizer) nextText() Token {
	start := z.pos
	// Consume at least one byte to guarantee progress.
	if i := strings.IndexByte(z.in[start+1:], '<'); i >= 0 {
		z.pos = start + 1 + i
	} else {
		z.pos = len(z.in)
	}
	return Token{Type: TextToken, Data: DecodeEntities(z.in[start:z.pos]), Offset: start}
}

// nextRawText consumes content of a raw-text element up to (not including)
// its case-insensitive close tag.
func (z *Tokenizer) nextRawText() Token {
	start := z.pos
	idx := indexCloseTag(z.in[z.pos:], z.rawTag)
	z.rawTag = ""
	if idx < 0 {
		z.pos = len(z.in)
		return Token{Type: TextToken, Data: z.in[start:], Offset: start}
	}
	z.pos += idx
	return Token{Type: TextToken, Data: z.in[start : start+idx], Offset: start}
}

// indexCloseTag returns the index of the first "</"+tag in s, the tag name
// matched case-insensitively, or -1. Only the bytes after a '<' are
// compared, so the scan is linear in s.
func indexCloseTag(s, tag string) int {
	for i := 0; ; i++ {
		j := strings.IndexByte(s[i:], '<')
		if j < 0 {
			return -1
		}
		i += j
		if i+2+len(tag) > len(s) {
			return -1
		}
		if s[i+1] == '/' && strings.EqualFold(s[i+2:i+2+len(tag)], tag) {
			return i
		}
	}
}

func (z *Tokenizer) nextMarkup() (Token, bool) {
	start := z.pos
	rest := z.in[z.pos:]
	switch {
	case strings.HasPrefix(rest, "<!--"):
		return z.nextComment(start), true
	case strings.HasPrefix(rest, "<!"):
		return z.nextDoctype(start), true
	case strings.HasPrefix(rest, "</"):
		return z.nextEndTag(start)
	default:
		return z.nextStartTag(start)
	}
}

func (z *Tokenizer) nextComment(start int) Token {
	end := strings.Index(z.in[start+4:], "-->")
	if end < 0 {
		data := z.in[start+4:]
		z.pos = len(z.in)
		return Token{Type: CommentToken, Data: data, Offset: start}
	}
	z.pos = start + 4 + end + 3
	return Token{Type: CommentToken, Data: z.in[start+4 : start+4+end], Offset: start}
}

func (z *Tokenizer) nextDoctype(start int) Token {
	end := strings.IndexByte(z.in[start:], '>')
	if end < 0 {
		data := z.in[start+2:]
		z.pos = len(z.in)
		return Token{Type: DoctypeToken, Data: strings.TrimSpace(data), Offset: start}
	}
	z.pos = start + end + 1
	return Token{Type: DoctypeToken, Data: strings.TrimSpace(z.in[start+2 : start+end]), Offset: start}
}

func (z *Tokenizer) nextEndTag(start int) (Token, bool) {
	p := start + 2
	name, p := scanTagName(z.in, p)
	if name == "" {
		return Token{}, false
	}
	// Skip to '>'.
	for p < len(z.in) && z.in[p] != '>' {
		p++
	}
	if p < len(z.in) {
		p++
	}
	z.pos = p
	return Token{Type: EndTagToken, Data: name, Offset: start}, true
}

func (z *Tokenizer) nextStartTag(start int) (Token, bool) {
	p := start + 1
	name, p := scanTagName(z.in, p)
	if name == "" {
		return Token{}, false
	}
	tok := Token{Type: StartTagToken, Data: name, Offset: start}
	if z.reuseAttrs {
		tok.Attrs = z.attrs[:0]
	}
	for {
		p = skipSpace(z.in, p)
		if p >= len(z.in) {
			break
		}
		if z.in[p] == '>' {
			p++
			break
		}
		if strings.HasPrefix(z.in[p:], "/>") {
			tok.Type = SelfClosingTagToken
			p += 2
			break
		}
		if z.in[p] == '/' {
			p++
			continue
		}
		var attr Attr
		var ok bool
		attr, p, ok = scanAttr(z.in, p)
		if !ok {
			p++ // guarantee progress on junk
			continue
		}
		tok.Attrs = append(tok.Attrs, attr)
	}
	z.pos = p
	if z.reuseAttrs {
		z.attrs = tok.Attrs
	}
	if tok.Type == StartTagToken && isRawText(tok.Data) {
		z.rawTag = tok.Data
	}
	return tok, true
}

// scanTagName reads an ASCII tag name starting at p; an empty name means the
// '<' did not open a tag.
func scanTagName(s string, p int) (string, int) {
	start := p
	for p < len(s) {
		c := s[p]
		if c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c == '-' || c == ':' {
			p++
			continue
		}
		break
	}
	if p == start {
		return "", start
	}
	first := s[start]
	if !(first >= 'a' && first <= 'z' || first >= 'A' && first <= 'Z') {
		return "", start
	}
	return strings.ToLower(s[start:p]), p
}

func skipSpace(s string, p int) int {
	for p < len(s) {
		switch s[p] {
		case ' ', '\t', '\n', '\r', '\f':
			p++
		default:
			return p
		}
	}
	return p
}

// scanAttr reads one attribute at p: name, name=value, name="value",
// name='value'.
func scanAttr(s string, p int) (Attr, int, bool) {
	start := p
	for p < len(s) {
		c := s[p]
		if c == '=' || c == '>' || c == '/' || c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '\f' {
			break
		}
		p++
	}
	if p == start {
		return Attr{}, p, false
	}
	attr := Attr{Name: strings.ToLower(s[start:p])}
	q := skipSpace(s, p)
	if q >= len(s) || s[q] != '=' {
		return attr, p, true // valueless attribute
	}
	p = skipSpace(s, q+1)
	if p >= len(s) {
		return attr, p, true
	}
	switch s[p] {
	case '"', '\'':
		quote := s[p]
		p++
		vstart := p
		for p < len(s) && s[p] != quote {
			p++
		}
		attr.Value = DecodeEntities(s[vstart:p])
		if p < len(s) {
			p++
		}
	default:
		vstart := p
		for p < len(s) {
			c := s[p]
			if c == '>' || c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '\f' {
				break
			}
			p++
		}
		attr.Value = DecodeEntities(s[vstart:p])
	}
	return attr, p, true
}

// namedEntities covers the references that occur in URLs and ordinary prose.
var namedEntities = map[string]rune{
	"amp":  '&',
	"lt":   '<',
	"gt":   '>',
	"quot": '"',
	"apos": '\'',
	"nbsp": ' ',
}

// DecodeEntities resolves character references (&amp;, &#38;, &#x26;) in s.
// Unrecognized references are left verbatim, as browsers do.
func DecodeEntities(s string) string {
	amp := strings.IndexByte(s, '&')
	if amp < 0 {
		return s
	}
	var b strings.Builder
	b.Grow(len(s))
	b.WriteString(s[:amp])
	i := amp
	for i < len(s) {
		if s[i] != '&' {
			b.WriteByte(s[i])
			i++
			continue
		}
		r, width := decodeOneEntity(s[i:])
		if width == 0 {
			b.WriteByte('&')
			i++
			continue
		}
		b.WriteRune(r)
		i += width
	}
	return b.String()
}

// decodeOneEntity decodes the reference at the start of s (which begins with
// '&'); width 0 means no valid reference.
func decodeOneEntity(s string) (rune, int) {
	semi := strings.IndexByte(s, ';')
	if semi < 0 || semi == 1 || semi > 32 {
		return 0, 0
	}
	body := s[1:semi]
	if body[0] == '#' {
		num := body[1:]
		base := 10
		if len(num) > 1 && (num[0] == 'x' || num[0] == 'X') {
			base = 16
			num = num[1:]
		}
		n, err := strconv.ParseUint(num, base, 32)
		if err != nil || n == 0 || n > 0x10FFFF {
			return 0, 0
		}
		return rune(n), semi + 1
	}
	if r, ok := namedEntities[body]; ok {
		return r, semi + 1
	}
	return 0, 0
}
