// Package dom implements the document object model used throughout m.Site.
//
// The tree is deliberately small: five node kinds, doubly linked siblings,
// and parent/child pointers. Every higher layer — the HTML parser, the CSS
// cascade and selectors, the XPath evaluator, the layout engine, and the
// attribute system — operates on this one representation, which is what
// lets the proxy adapt a page without ever instantiating a heavyweight
// browser.
package dom

import (
	"sort"
	"strings"
)

// NodeType identifies the kind of a Node.
type NodeType int

// Node kinds. The zero value is invalid so that an uninitialized Node is
// detectable.
const (
	DocumentNode NodeType = iota + 1
	ElementNode
	TextNode
	CommentNode
	DoctypeNode
)

// String returns a human-readable name for the node type.
func (t NodeType) String() string {
	switch t {
	case DocumentNode:
		return "document"
	case ElementNode:
		return "element"
	case TextNode:
		return "text"
	case CommentNode:
		return "comment"
	case DoctypeNode:
		return "doctype"
	default:
		return "invalid"
	}
}

// Attr is a single element attribute. Keys are stored lowercase.
type Attr struct {
	Key string
	Val string
}

// Node is a single node in the document tree.
//
// For ElementNode, Tag holds the lowercase tag name. For TextNode and
// CommentNode, Data holds the content. For DoctypeNode, Data holds the
// doctype text (e.g. "html").
type Node struct {
	Type NodeType
	Tag  string
	Data string

	Attrs []Attr

	Parent      *Node
	FirstChild  *Node
	LastChild   *Node
	PrevSibling *Node
	NextSibling *Node
}

// NewDocument returns an empty document node.
func NewDocument() *Node {
	return &Node{Type: DocumentNode}
}

// NewElement returns a detached element node with the given tag, lowercased.
func NewElement(tag string) *Node {
	return &Node{Type: ElementNode, Tag: strings.ToLower(tag)}
}

// NewText returns a detached text node.
func NewText(data string) *Node {
	return &Node{Type: TextNode, Data: data}
}

// NewComment returns a detached comment node.
func NewComment(data string) *Node {
	return &Node{Type: CommentNode, Data: data}
}

// NewDoctype returns a detached doctype node.
func NewDoctype(data string) *Node {
	return &Node{Type: DoctypeNode, Data: data}
}

// Attr returns the value of the named attribute and whether it exists.
// The lookup is case-insensitive.
func (n *Node) Attr(key string) (string, bool) {
	key = strings.ToLower(key)
	for _, a := range n.Attrs {
		if a.Key == key {
			return a.Val, true
		}
	}
	return "", false
}

// AttrOr returns the value of the named attribute, or def if absent.
func (n *Node) AttrOr(key, def string) string {
	if v, ok := n.Attr(key); ok {
		return v
	}
	return def
}

// SetAttr sets the named attribute, replacing an existing value.
func (n *Node) SetAttr(key, val string) {
	key = strings.ToLower(key)
	for i := range n.Attrs {
		if n.Attrs[i].Key == key {
			n.Attrs[i].Val = val
			return
		}
	}
	n.Attrs = append(n.Attrs, Attr{Key: key, Val: val})
}

// DelAttr removes the named attribute if present.
func (n *Node) DelAttr(key string) {
	key = strings.ToLower(key)
	for i := range n.Attrs {
		if n.Attrs[i].Key == key {
			n.Attrs = append(n.Attrs[:i], n.Attrs[i+1:]...)
			return
		}
	}
}

// HasAttr reports whether the named attribute exists.
func (n *Node) HasAttr(key string) bool {
	_, ok := n.Attr(key)
	return ok
}

// ID returns the element's id attribute, or "".
func (n *Node) ID() string {
	return n.AttrOr("id", "")
}

// Classes returns the element's class list.
func (n *Node) Classes() []string {
	return strings.Fields(n.AttrOr("class", ""))
}

// HasClass reports whether the element's class list contains c. It scans
// the attribute in place and builds no list.
func (n *Node) HasClass(c string) bool {
	for have := range strings.FieldsSeq(n.AttrOr("class", "")) {
		if have == c {
			return true
		}
	}
	return false
}

// AddClass appends c to the element's class list if not already present.
func (n *Node) AddClass(c string) {
	if n.HasClass(c) {
		return
	}
	cur := n.AttrOr("class", "")
	if cur == "" {
		n.SetAttr("class", c)
		return
	}
	n.SetAttr("class", cur+" "+c)
}

// RemoveClass removes c from the element's class list.
func (n *Node) RemoveClass(c string) {
	classes := n.Classes()
	out := classes[:0]
	for _, have := range classes {
		if have != c {
			out = append(out, have)
		}
	}
	if len(out) == 0 {
		n.DelAttr("class")
		return
	}
	n.SetAttr("class", strings.Join(out, " "))
}

// AppendChild appends c as the last child of n. c is detached first.
func (n *Node) AppendChild(c *Node) {
	c.Detach()
	c.Parent = n
	c.PrevSibling = n.LastChild
	if n.LastChild != nil {
		n.LastChild.NextSibling = c
	} else {
		n.FirstChild = c
	}
	n.LastChild = c
}

// PrependChild inserts c as the first child of n. c is detached first.
func (n *Node) PrependChild(c *Node) {
	if n.FirstChild == nil {
		n.AppendChild(c)
		return
	}
	n.InsertBefore(c, n.FirstChild)
}

// InsertBefore inserts c as a child of n, immediately before ref.
// ref must be a child of n; if ref is nil, c is appended.
func (n *Node) InsertBefore(c, ref *Node) {
	if ref == nil {
		n.AppendChild(c)
		return
	}
	c.Detach()
	c.Parent = n
	c.PrevSibling = ref.PrevSibling
	c.NextSibling = ref
	if ref.PrevSibling != nil {
		ref.PrevSibling.NextSibling = c
	} else {
		n.FirstChild = c
	}
	ref.PrevSibling = c
}

// InsertAfter inserts c as a sibling of n, immediately after it.
// n must have a parent.
func (n *Node) InsertAfter(c *Node) {
	if n.Parent == nil {
		return
	}
	n.Parent.InsertBefore(c, n.NextSibling)
}

// Detach removes n from its parent, leaving it (and its subtree) intact.
// Detaching an already-detached node is a no-op.
func (n *Node) Detach() {
	if n.Parent == nil {
		return
	}
	if n.PrevSibling != nil {
		n.PrevSibling.NextSibling = n.NextSibling
	} else {
		n.Parent.FirstChild = n.NextSibling
	}
	if n.NextSibling != nil {
		n.NextSibling.PrevSibling = n.PrevSibling
	} else {
		n.Parent.LastChild = n.PrevSibling
	}
	n.Parent = nil
	n.PrevSibling = nil
	n.NextSibling = nil
}

// ReplaceWith substitutes repl for n in the tree. n is detached.
func (n *Node) ReplaceWith(repl *Node) {
	parent := n.Parent
	if parent == nil {
		return
	}
	next := n.NextSibling
	n.Detach()
	parent.InsertBefore(repl, next)
}

// Clone returns a deep copy of n and its subtree. The copy is detached.
func (n *Node) Clone() *Node {
	c := &Node{Type: n.Type, Tag: n.Tag, Data: n.Data}
	if len(n.Attrs) > 0 {
		c.Attrs = make([]Attr, len(n.Attrs))
		copy(c.Attrs, n.Attrs)
	}
	for child := n.FirstChild; child != nil; child = child.NextSibling {
		c.AppendChild(child.Clone())
	}
	return c
}

// Children returns the element children of n, in document order.
func (n *Node) Children() []*Node {
	var out []*Node
	for c := n.FirstChild; c != nil; c = c.NextSibling {
		if c.Type == ElementNode {
			out = append(out, c)
		}
	}
	return out
}

// ChildNodes returns all children of n (any type), in document order.
func (n *Node) ChildNodes() []*Node {
	var out []*Node
	for c := n.FirstChild; c != nil; c = c.NextSibling {
		out = append(out, c)
	}
	return out
}

// NextElement returns the next sibling that is an element, or nil.
func (n *Node) NextElement() *Node {
	for s := n.NextSibling; s != nil; s = s.NextSibling {
		if s.Type == ElementNode {
			return s
		}
	}
	return nil
}

// PrevElement returns the previous sibling that is an element, or nil.
func (n *Node) PrevElement() *Node {
	for s := n.PrevSibling; s != nil; s = s.PrevSibling {
		if s.Type == ElementNode {
			return s
		}
	}
	return nil
}

// ElementIndex returns the 0-based index of n among its parent's element
// children, or -1 if n is not an element child of its parent.
func (n *Node) ElementIndex() int {
	if n.Parent == nil || n.Type != ElementNode {
		return -1
	}
	i := 0
	for c := n.Parent.FirstChild; c != nil; c = c.NextSibling {
		if c.Type != ElementNode {
			continue
		}
		if c == n {
			return i
		}
		i++
	}
	return -1
}

// Ancestors returns the chain of parents from n's parent to the root.
func (n *Node) Ancestors() []*Node {
	var out []*Node
	for p := n.Parent; p != nil; p = p.Parent {
		out = append(out, p)
	}
	return out
}

// Root returns the topmost ancestor of n (n itself if detached).
func (n *Node) Root() *Node {
	r := n
	for r.Parent != nil {
		r = r.Parent
	}
	return r
}

// Contains reports whether other is n or a descendant of n.
func (n *Node) Contains(other *Node) bool {
	for p := other; p != nil; p = p.Parent {
		if p == n {
			return true
		}
	}
	return false
}

// Walk visits n and every descendant in document order. If fn returns
// false for a node, that node's subtree is skipped.
func (n *Node) Walk(fn func(*Node) bool) {
	if !fn(n) {
		return
	}
	for c := n.FirstChild; c != nil; {
		next := c.NextSibling // allow fn to detach c
		c.Walk(fn)
		c = next
	}
}

// Find returns every descendant of n (not n itself) satisfying pred,
// in document order.
func (n *Node) Find(pred func(*Node) bool) []*Node {
	var out []*Node
	for c := n.FirstChild; c != nil; c = c.NextSibling {
		c.Walk(func(d *Node) bool {
			if pred(d) {
				out = append(out, d)
			}
			return true
		})
	}
	return out
}

// FindFirst returns the first descendant of n satisfying pred, or nil.
func (n *Node) FindFirst(pred func(*Node) bool) *Node {
	var found *Node
	for c := n.FirstChild; c != nil && found == nil; c = c.NextSibling {
		c.Walk(func(d *Node) bool {
			if found != nil {
				return false
			}
			if pred(d) {
				found = d
				return false
			}
			return true
		})
	}
	return found
}

// Elements returns every descendant element of n with the given tag.
// A tag of "*" or "" matches every element.
func (n *Node) Elements(tag string) []*Node {
	tag = strings.ToLower(tag)
	return n.Find(func(d *Node) bool {
		if d.Type != ElementNode {
			return false
		}
		return tag == "" || tag == "*" || d.Tag == tag
	})
}

// ElementByID returns the descendant element with the given id, or nil.
func (n *Node) ElementByID(id string) *Node {
	return n.FindFirst(func(d *Node) bool {
		return d.Type == ElementNode && d.ID() == id
	})
}

// Text returns the concatenated text content of n's subtree.
// Script and style contents are excluded: they are code, not copy.
func (n *Node) Text() string {
	var b strings.Builder
	n.Walk(func(d *Node) bool {
		if d.Type == ElementNode && (d.Tag == "script" || d.Tag == "style") {
			return false
		}
		if d.Type == TextNode {
			b.WriteString(d.Data)
		}
		return true
	})
	return b.String()
}

// SetText replaces n's children with a single text node containing s.
func (n *Node) SetText(s string) {
	n.Empty()
	n.AppendChild(NewText(s))
}

// Empty removes all children of n.
func (n *Node) Empty() {
	for n.FirstChild != nil {
		n.FirstChild.Detach()
	}
}

// Body returns the document's body element, or nil.
func (n *Node) Body() *Node {
	return n.Root().FindFirst(func(d *Node) bool {
		return d.Type == ElementNode && d.Tag == "body"
	})
}

// Head returns the document's head element, or nil.
func (n *Node) Head() *Node {
	return n.Root().FindFirst(func(d *Node) bool {
		return d.Type == ElementNode && d.Tag == "head"
	})
}

// DocumentElement returns the document's html element, or nil.
func (n *Node) DocumentElement() *Node {
	r := n.Root()
	for c := r.FirstChild; c != nil; c = c.NextSibling {
		if c.Type == ElementNode && c.Tag == "html" {
			return c
		}
	}
	return nil
}

// CountElements returns the number of element nodes in n's subtree,
// including n itself if it is an element.
func (n *Node) CountElements() int {
	count := 0
	n.Walk(func(d *Node) bool {
		if d.Type == ElementNode {
			count++
		}
		return true
	})
	return count
}

// Path returns a simple absolute location path for n, of the form
// /html/body/div[2]/p[1], using 1-based per-tag sibling indexes. It is
// the inverse-friendly form consumed by the xpath package and is how the
// admin tool records visually selected objects.
func (n *Node) Path() string {
	if n.Type != ElementNode {
		return ""
	}
	var segs []string
	for e := n; e != nil && e.Type == ElementNode; e = e.Parent {
		idx := 1
		for s := e.PrevSibling; s != nil; s = s.PrevSibling {
			if s.Type == ElementNode && s.Tag == e.Tag {
				idx++
			}
		}
		segs = append(segs, e.Tag+"["+itoa(idx)+"]")
	}
	// Reverse.
	for i, j := 0, len(segs)-1; i < j; i, j = i+1, j-1 {
		segs[i], segs[j] = segs[j], segs[i]
	}
	return "/" + strings.Join(segs, "/")
}

// SortNodes sorts nodes in document order relative to the given root and
// removes duplicates. Nodes not under root keep their relative order at
// the end. The input slice is modified and returned. Only the selected
// nodes are indexed, and a selection of at most one node is returned as
// it is, so sorting costs nothing in proportion to the document.
func SortNodes(root *Node, nodes []*Node) []*Node {
	if len(nodes) < 2 {
		return nodes
	}
	// order is each selected node's position under root, -1 until the
	// walk meets it.
	order := make(map[*Node]int, len(nodes))
	uniq := nodes[:0]
	for _, n := range nodes {
		if _, dup := order[n]; !dup {
			order[n] = -1
			uniq = append(uniq, n)
		}
	}
	pos, left := 0, len(uniq)
	root.Walk(func(d *Node) bool {
		if o, ok := order[d]; ok && o < 0 {
			order[d] = pos
			left--
		}
		pos++
		return left > 0
	})
	sort.SliceStable(uniq, func(a, b int) bool {
		oa, ob := order[uniq[a]], order[uniq[b]]
		return oa >= 0 && (ob < 0 || oa < ob)
	})
	return uniq
}

func itoa(v int) string {
	// Tiny positive-int formatter; avoids pulling strconv into the hot
	// Path() loop for the common 1-digit case.
	if v < 10 {
		return string(rune('0' + v))
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
