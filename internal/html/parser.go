package html

import (
	"strings"

	"msite/internal/dom"
)

// voidTags are elements that never have content or an end tag.
var voidTags = map[string]bool{
	"area": true, "base": true, "br": true, "col": true, "embed": true,
	"hr": true, "img": true, "input": true, "link": true, "meta": true,
	"param": true, "source": true, "track": true, "wbr": true,
}

// autoClose maps a start tag to the set of open tags it implicitly closes
// when they are the current insertion point. This is the tag-soup recovery
// that lets the parser consume template-driven forum markup that omits
// optional end tags.
var autoClose = map[string]map[string]bool{
	"p":          {"p": true},
	"li":         {"li": true},
	"dt":         {"dt": true, "dd": true},
	"dd":         {"dt": true, "dd": true},
	"tr":         {"tr": true, "td": true, "th": true},
	"td":         {"td": true, "th": true},
	"th":         {"td": true, "th": true},
	"thead":      {"thead": true, "tbody": true, "tfoot": true, "tr": true, "td": true, "th": true},
	"tbody":      {"thead": true, "tbody": true, "tfoot": true, "tr": true, "td": true, "th": true},
	"tfoot":      {"thead": true, "tbody": true, "tfoot": true, "tr": true, "td": true, "th": true},
	"option":     {"option": true},
	"optgroup":   {"option": true, "optgroup": true},
	"colgroup":   {"colgroup": true},
	"h1":         {"p": true},
	"h2":         {"p": true},
	"h3":         {"p": true},
	"h4":         {"p": true},
	"h5":         {"p": true},
	"h6":         {"p": true},
	"ul":         {"p": true},
	"ol":         {"p": true},
	"div":        {"p": true},
	"table":      {"p": true},
	"form":       {"p": true},
	"blockquote": {"p": true},
}

// headOnlyTags belong in <head>; the Tidy pass relocates strays.
var headOnlyTags = map[string]bool{
	"title": true, "base": true, "meta": true,
}

// nodeChunk is how many nodes a chunk of Parse's node slab holds, at
// most. A page makes at most two nodes a '<' (the element and the text
// after it), so a small page's one chunk is no larger than it needs.
const nodeChunk = 128

// Parse parses HTML source into a document tree. It never returns an
// error: arbitrarily malformed input produces a best-effort tree, matching
// the error recovery a browser applies. Use Tidy to additionally normalize
// document structure.
//
// The tree's nodes and attribute lists are cut from slabs (dom.Slab): a
// node keeps its chunk alive, as its parent and sibling pointers already
// keep the whole tree.
func Parse(src string) *dom.Node {
	doc := dom.NewDocument()
	z := NewTokenizer(src)
	nodes := dom.Slab[dom.Node]{Chunk: min(nodeChunk, 2*strings.Count(src, "<")+1)}
	node := func(n dom.Node) *dom.Node {
		p := nodes.New()
		*p = n
		return p
	}

	// stack of open elements; doc is the root insertion point.
	stack := []*dom.Node{doc}
	top := func() *dom.Node { return stack[len(stack)-1] }

	for {
		tok := z.Next()
		switch tok.Type {
		case ErrorToken:
			return doc

		case TextToken:
			top().AppendChild(node(dom.Node{Type: dom.TextNode, Data: tok.Data}))

		case CommentToken:
			top().AppendChild(node(dom.Node{Type: dom.CommentNode, Data: tok.Data}))

		case DoctypeToken:
			doc.AppendChild(node(dom.Node{Type: dom.DoctypeNode, Data: tok.Tag}))

		case SelfClosingTagToken:
			// Self-closing tags still trigger implied end tags (a
			// <p/> after an open <p> closes it, exactly as <p> would).
			if closes, ok := autoClose[tok.Tag]; ok {
				for len(stack) > 1 && closes[top().Tag] {
					stack = stack[:len(stack)-1]
				}
			}
			el := node(dom.Node{Type: dom.ElementNode, Tag: tok.Tag, Attrs: tok.Attrs})
			top().AppendChild(el)

		case StartTagToken:
			// Apply implicit end tags.
			if closes, ok := autoClose[tok.Tag]; ok {
				for len(stack) > 1 && closes[top().Tag] {
					stack = stack[:len(stack)-1]
				}
			}
			el := node(dom.Node{Type: dom.ElementNode, Tag: tok.Tag, Attrs: tok.Attrs})
			top().AppendChild(el)
			if !voidTags[tok.Tag] {
				stack = append(stack, el)
			}

		case EndTagToken:
			if voidTags[tok.Tag] {
				continue // stray </br> etc.
			}
			// Find the matching open element.
			match := -1
			for i := len(stack) - 1; i >= 1; i-- {
				if stack[i].Tag == tok.Tag {
					match = i
					break
				}
			}
			if match < 0 {
				continue // unmatched end tag: ignored
			}
			stack = stack[:match]
		}
	}
}

// ParseFragment parses src as a fragment (no implied document structure)
// and returns the resulting top-level nodes, detached from any document.
func ParseFragment(src string) []*dom.Node {
	doc := Parse(src)
	nodes := doc.ChildNodes()
	for _, n := range nodes {
		n.Detach()
	}
	return nodes
}
