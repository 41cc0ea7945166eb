package htmlparse

import "strings"

// NodeType identifies the kind of a DOM node.
type NodeType int

// Node types.
const (
	DocumentNode NodeType = iota
	ElementNode
	TextNode
	CommentNode
	DoctypeNode
)

// Node is a node of the parsed document tree.
type Node struct {
	Type NodeType
	// Data is the lowercased tag name for elements, or content for text,
	// comments and doctypes.
	Data   string
	Attrs  []Attr
	Parent *Node
	Kids   []*Node
	// Offset is the byte offset of the node's first byte in the source.
	Offset int
}

// Attr returns the value of the named attribute and whether it is present.
func (n *Node) Attr(name string) (string, bool) { return attr(n.Attrs, name) }

// Text returns the concatenated text content of the subtree.
func (n *Node) Text() string {
	var b strings.Builder
	n.Walk(func(c *Node) bool {
		if c.Type == TextNode {
			b.WriteString(c.Data)
		}
		return true
	})
	return b.String()
}

// Walk visits the subtree rooted at n in document order. Returning false
// from fn prunes the subtree below the visited node.
func (n *Node) Walk(fn func(*Node) bool) {
	if !fn(n) {
		return
	}
	for _, c := range n.Kids {
		c.Walk(fn)
	}
}

// Find returns the first element with the given tag name in document order,
// or nil.
func (n *Node) Find(tag string) *Node {
	var found *Node
	n.Walk(func(c *Node) bool {
		if found != nil {
			return false
		}
		if c.Type == ElementNode && c.Data == tag {
			found = c
			return false
		}
		return true
	})
	return found
}

// FindAll returns every element with the given tag name in document order.
func (n *Node) FindAll(tag string) []*Node {
	var out []*Node
	n.Walk(func(c *Node) bool {
		if c.Type == ElementNode && c.Data == tag {
			out = append(out, c)
		}
		return true
	})
	return out
}

// isVoid reports whether tag is a void element: it never has children, its
// start tag implies the whole element (WHATWG HTML §13.1.2).
func isVoid(tag string) bool {
	switch tag {
	case "area", "base", "br", "col", "embed", "hr", "img", "input", "link",
		"meta", "param", "source", "track", "wbr":
		return true
	}
	return false
}

// impliesEnd reports whether opening tag implicitly closes the open element
// open — the small part of the HTML5 "in body" insertion mode that matters
// for getting link extraction parents right.
func impliesEnd(tag, open string) bool {
	switch tag {
	case "li", "p", "option":
		return open == tag
	case "tr":
		return open == "tr" || open == "td" || open == "th"
	case "td", "th":
		return open == "td" || open == "th"
	case "dt", "dd":
		return open == "dt" || open == "dd"
	}
	return false
}

// Parse builds a document tree from HTML source. It never fails; malformed
// input produces the best-effort tree a browser's error recovery would.
func Parse(input string) *Node {
	doc := &Node{Type: DocumentNode}
	stack := []*Node{doc}
	top := func() *Node { return stack[len(stack)-1] }

	z := NewTokenizer(input)
	for {
		tok, ok := z.Next()
		if !ok {
			break
		}
		switch tok.Type {
		case TextToken:
			if tok.Data == "" {
				continue
			}
			top().append(&Node{Type: TextNode, Data: tok.Data, Offset: tok.Offset})
		case CommentToken:
			top().append(&Node{Type: CommentNode, Data: tok.Data, Offset: tok.Offset})
		case DoctypeToken:
			top().append(&Node{Type: DoctypeNode, Data: tok.Data, Offset: tok.Offset})
		case StartTagToken, SelfClosingTagToken:
			if len(stack) > 1 && impliesEnd(tok.Data, top().Data) {
				stack = stack[:len(stack)-1]
			}
			el := &Node{Type: ElementNode, Data: tok.Data, Attrs: tok.Attrs, Offset: tok.Offset}
			top().append(el)
			if tok.Type == StartTagToken && !isVoid(tok.Data) {
				stack = append(stack, el)
			}
		case EndTagToken:
			// Pop to the matching open element if one exists; otherwise
			// ignore the stray end tag.
			for i := len(stack) - 1; i >= 1; i-- {
				if stack[i].Data == tok.Data {
					stack = stack[:i]
					break
				}
			}
		}
	}
	return doc
}

func (n *Node) append(c *Node) {
	c.Parent = n
	n.Kids = append(n.Kids, c)
}

// Render serializes the tree back to HTML. Attribute values are quoted and
// minimally escaped; raw-text element content is emitted verbatim. Rendering
// a parsed document yields equivalent markup (not byte-identical: the
// serializer normalizes quoting and case).
func Render(n *Node) string {
	var b strings.Builder
	renderNode(&b, n)
	return b.String()
}

func renderNode(b *strings.Builder, n *Node) {
	switch n.Type {
	case DocumentNode:
		for _, c := range n.Kids {
			renderNode(b, c)
		}
	case DoctypeNode:
		b.WriteString("<!")
		b.WriteString(n.Data)
		b.WriteString(">")
	case CommentNode:
		b.WriteString("<!--")
		b.WriteString(n.Data)
		b.WriteString("-->")
	case TextNode:
		if n.Parent != nil && n.Parent.Type == ElementNode && isRawText(n.Parent.Data) {
			b.WriteString(n.Data)
			return
		}
		b.WriteString(escapeText(n.Data))
	case ElementNode:
		b.WriteByte('<')
		b.WriteString(n.Data)
		for _, a := range n.Attrs {
			b.WriteByte(' ')
			b.WriteString(a.Name)
			if a.Value != "" {
				b.WriteString(`="`)
				b.WriteString(escapeAttr(a.Value))
				b.WriteByte('"')
			}
		}
		b.WriteByte('>')
		if isVoid(n.Data) {
			return
		}
		for _, c := range n.Kids {
			renderNode(b, c)
		}
		b.WriteString("</")
		b.WriteString(n.Data)
		b.WriteByte('>')
	}
}

func escapeText(s string) string {
	s = strings.ReplaceAll(s, "&", "&amp;")
	s = strings.ReplaceAll(s, "<", "&lt;")
	return s
}

func escapeAttr(s string) string {
	s = strings.ReplaceAll(s, "&", "&amp;")
	s = strings.ReplaceAll(s, `"`, "&quot;")
	return s
}
