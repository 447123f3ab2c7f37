package html

import (
	"strings"

	"msite/internal/dom"
)

// RenderMode selects the serialization dialect.
type RenderMode int

// Serialization dialects.
const (
	// ModeHTML emits HTML: void elements have no closing slash and raw-text
	// element bodies are not escaped.
	ModeHTML RenderMode = iota + 1
	// ModeXHTML emits well-formed XHTML: void elements self-close, every
	// attribute is quoted, and the output is parseable by XML tooling.
	// This is the Tidy output dialect.
	ModeXHTML
)

// Render serializes the tree rooted at n to HTML.
func Render(n *dom.Node) string {
	var b strings.Builder
	render(&b, n, ModeHTML)
	return b.String()
}

// RenderTo appends the HTML serialization of the tree rooted at n to b,
// for callers assembling one document from several trees.
func RenderTo(b *strings.Builder, n *dom.Node) { render(b, n, ModeHTML) }

// RenderXHTML serializes the tree rooted at n to well-formed XHTML.
func RenderXHTML(n *dom.Node) string {
	var b strings.Builder
	render(&b, n, ModeXHTML)
	return b.String()
}

func render(b *strings.Builder, n *dom.Node, mode RenderMode) {
	switch n.Type {
	case dom.DocumentNode:
		for c := n.FirstChild; c != nil; c = c.NextSibling {
			render(b, c, mode)
		}

	case dom.DoctypeNode:
		b.WriteString("<!DOCTYPE ")
		b.WriteString(n.Data)
		b.WriteString(">")

	case dom.CommentNode:
		b.WriteString("<!--")
		b.WriteString(n.Data)
		b.WriteString("-->")

	case dom.TextNode:
		if n.Parent != nil && n.Parent.Type == dom.ElementNode && rawTextTags[n.Parent.Tag] {
			b.WriteString(n.Data)
			return
		}
		b.WriteString(EscapeText(n.Data))

	case dom.ElementNode:
		b.WriteByte('<')
		b.WriteString(n.Tag)
		for _, a := range n.Attrs {
			b.WriteByte(' ')
			b.WriteString(a.Key)
			if a.Val == "" && mode == ModeHTML {
				continue // boolean attribute
			}
			b.WriteString(`="`)
			b.WriteString(EscapeAttr(a.Val))
			b.WriteByte('"')
		}
		if voidTags[n.Tag] {
			if mode == ModeXHTML {
				b.WriteString(" />")
			} else {
				b.WriteByte('>')
			}
			return
		}
		b.WriteByte('>')
		for c := n.FirstChild; c != nil; c = c.NextSibling {
			render(b, c, mode)
		}
		b.WriteString("</")
		b.WriteString(n.Tag)
		b.WriteByte('>')
	}
}
