package dom

import (
	"strings"
	"testing"
	"testing/quick"
)

func buildSample() (*Node, *Node, *Node, *Node) {
	doc := NewDocument()
	html := NewElement("html")
	body := NewElement("body")
	div := NewElement("div")
	div.SetAttr("id", "main")
	div.SetAttr("class", "content wide")
	doc.AppendChild(html)
	html.AppendChild(body)
	body.AppendChild(div)
	return doc, html, body, div
}

func TestNodeTypeString(t *testing.T) {
	cases := map[NodeType]string{
		DocumentNode: "document",
		ElementNode:  "element",
		TextNode:     "text",
		CommentNode:  "comment",
		DoctypeNode:  "doctype",
		NodeType(0):  "invalid",
	}
	for typ, want := range cases {
		if got := typ.String(); got != want {
			t.Errorf("NodeType(%d).String() = %q, want %q", typ, got, want)
		}
	}
}

func TestAppendChildLinksPointers(t *testing.T) {
	doc, html, body, div := buildSample()
	if html.Parent != doc {
		t.Fatal("html parent not set")
	}
	if doc.FirstChild != html || doc.LastChild != html {
		t.Fatal("doc first/last child wrong")
	}
	if body.FirstChild != div || div.Parent != body {
		t.Fatal("div links wrong")
	}
}

func TestAppendChildMultiple(t *testing.T) {
	p := NewElement("ul")
	a := NewElement("li")
	b := NewElement("li")
	c := NewElement("li")
	p.AppendChild(a)
	p.AppendChild(b)
	p.AppendChild(c)
	if p.FirstChild != a || p.LastChild != c {
		t.Fatal("first/last wrong")
	}
	if a.NextSibling != b || b.NextSibling != c || c.NextSibling != nil {
		t.Fatal("next links wrong")
	}
	if c.PrevSibling != b || b.PrevSibling != a || a.PrevSibling != nil {
		t.Fatal("prev links wrong")
	}
}

func TestAppendChildReparents(t *testing.T) {
	p1 := NewElement("div")
	p2 := NewElement("div")
	c := NewElement("span")
	p1.AppendChild(c)
	p2.AppendChild(c)
	if p1.FirstChild != nil {
		t.Fatal("old parent still holds child")
	}
	if c.Parent != p2 {
		t.Fatal("child not reparented")
	}
}

func TestPrependChild(t *testing.T) {
	p := NewElement("div")
	b := NewElement("b")
	a := NewElement("a")
	p.PrependChild(b)
	p.PrependChild(a)
	if p.FirstChild != a || a.NextSibling != b {
		t.Fatal("prepend order wrong")
	}
}

func TestInsertBefore(t *testing.T) {
	p := NewElement("div")
	a := NewElement("a")
	c := NewElement("c")
	p.AppendChild(a)
	p.AppendChild(c)
	b := NewElement("b")
	p.InsertBefore(b, c)
	got := tagsOf(p.Children())
	if got != "a b c" {
		t.Fatalf("order = %q, want %q", got, "a b c")
	}
}

func TestInsertBeforeNilRefAppends(t *testing.T) {
	p := NewElement("div")
	a := NewElement("a")
	p.InsertBefore(a, nil)
	if p.LastChild != a {
		t.Fatal("nil ref should append")
	}
}

func TestInsertBeforeFirst(t *testing.T) {
	p := NewElement("div")
	b := NewElement("b")
	p.AppendChild(b)
	a := NewElement("a")
	p.InsertBefore(a, b)
	if p.FirstChild != a || a.PrevSibling != nil {
		t.Fatal("insert at head wrong")
	}
}

func TestInsertAfter(t *testing.T) {
	p := NewElement("div")
	a := NewElement("a")
	c := NewElement("c")
	p.AppendChild(a)
	p.AppendChild(c)
	b := NewElement("b")
	a.InsertAfter(b)
	if got := tagsOf(p.Children()); got != "a b c" {
		t.Fatalf("order = %q", got)
	}
	d := NewElement("d")
	c.InsertAfter(d)
	if p.LastChild != d {
		t.Fatal("insert after last should become last")
	}
}

func TestDetachMiddle(t *testing.T) {
	p := NewElement("div")
	a, b, c := NewElement("a"), NewElement("b"), NewElement("c")
	p.AppendChild(a)
	p.AppendChild(b)
	p.AppendChild(c)
	b.Detach()
	if got := tagsOf(p.Children()); got != "a c" {
		t.Fatalf("after detach: %q", got)
	}
	if b.Parent != nil || b.PrevSibling != nil || b.NextSibling != nil {
		t.Fatal("detached node retains links")
	}
	b.Detach() // idempotent
}

func TestDetachOnly(t *testing.T) {
	p := NewElement("div")
	a := NewElement("a")
	p.AppendChild(a)
	a.Detach()
	if p.FirstChild != nil || p.LastChild != nil {
		t.Fatal("parent retains pointers")
	}
}

func TestReplaceWith(t *testing.T) {
	p := NewElement("div")
	a, b, c := NewElement("a"), NewElement("b"), NewElement("c")
	p.AppendChild(a)
	p.AppendChild(b)
	p.AppendChild(c)
	x := NewElement("x")
	b.ReplaceWith(x)
	if got := tagsOf(p.Children()); got != "a x c" {
		t.Fatalf("after replace: %q", got)
	}
	if b.Parent != nil {
		t.Fatal("replaced node not detached")
	}
}

func TestReplaceWithDetachedIsNoop(t *testing.T) {
	a := NewElement("a")
	x := NewElement("x")
	a.ReplaceWith(x) // must not panic
	if x.Parent != nil {
		t.Fatal("replacement attached to nothing")
	}
}

func TestCloneDeep(t *testing.T) {
	_, _, _, div := buildSample()
	span := NewElement("span")
	span.AppendChild(NewText("hello"))
	div.AppendChild(span)

	c := div.Clone()
	if c.Parent != nil {
		t.Fatal("clone should be detached")
	}
	if c.AttrOr("id", "") != "main" {
		t.Fatal("clone lost attrs")
	}
	if c.FirstChild == span {
		t.Fatal("clone shares children with original")
	}
	if c.Text() != "hello" {
		t.Fatalf("clone text = %q", c.Text())
	}
	// Mutating the clone must not affect the original.
	c.SetAttr("id", "copy")
	if div.ID() != "main" {
		t.Fatal("clone mutation leaked to original")
	}
}

func TestAttrCaseInsensitive(t *testing.T) {
	e := NewElement("img")
	e.SetAttr("SRC", "/a.png")
	if v, ok := e.Attr("src"); !ok || v != "/a.png" {
		t.Fatalf("attr = %q, %v", v, ok)
	}
	e.SetAttr("src", "/b.png")
	if len(e.Attrs) != 1 {
		t.Fatalf("duplicate attr created: %v", e.Attrs)
	}
	e.DelAttr("SrC")
	if e.HasAttr("src") {
		t.Fatal("attr not deleted")
	}
}

func TestClassHelpers(t *testing.T) {
	e := NewElement("div")
	e.AddClass("a")
	e.AddClass("b")
	e.AddClass("a") // dedupe
	if got := e.AttrOr("class", ""); got != "a b" {
		t.Fatalf("class = %q", got)
	}
	if !e.HasClass("a") || !e.HasClass("b") || e.HasClass("c") {
		t.Fatal("HasClass wrong")
	}
	e.RemoveClass("a")
	if got := e.AttrOr("class", ""); got != "b" {
		t.Fatalf("class after remove = %q", got)
	}
	e.RemoveClass("b")
	if e.HasAttr("class") {
		t.Fatal("empty class attr should be deleted")
	}
}

// TestHasClassScansInPlace: HasClass agrees with Classes on any
// whitespace and allocates nothing — selector matching calls it for every
// class selector against every candidate element.
func TestHasClassScansInPlace(t *testing.T) {
	e := NewElement("td")
	e.SetAttr("class", "  alt1\tforumrow\n smallfont\u00a0wide ")
	for _, c := range e.Classes() {
		if !e.HasClass(c) {
			t.Fatalf("HasClass(%q) false for a member of %q", c, e.Classes())
		}
	}
	for _, c := range []string{"", "alt", "alt1 forumrow", "font", " "} {
		if e.HasClass(c) {
			t.Fatalf("HasClass(%q) true for %q", c, e.Classes())
		}
	}
	if n := testing.AllocsPerRun(100, func() { e.HasClass("wide"); e.HasClass("absent") }); n != 0 {
		t.Fatalf("HasClass allocates %v times per call pair", n)
	}
}

func TestTextSkipsScriptAndStyle(t *testing.T) {
	div := NewElement("div")
	div.AppendChild(NewText("a "))
	script := NewElement("script")
	script.AppendChild(NewText("var x=1;"))
	div.AppendChild(script)
	div.AppendChild(NewText("b"))
	if got := div.Text(); got != "a b" {
		t.Fatalf("Text() = %q", got)
	}
}

func TestSetTextAndEmpty(t *testing.T) {
	div := NewElement("div")
	div.AppendChild(NewElement("span"))
	div.SetText("replaced")
	if div.FirstChild == nil || div.FirstChild.Type != TextNode || div.FirstChild != div.LastChild {
		t.Fatal("SetText did not produce single text child")
	}
	div.Empty()
	if div.FirstChild != nil {
		t.Fatal("Empty left children")
	}
}

func TestChildrenVsChildNodes(t *testing.T) {
	div := NewElement("div")
	div.AppendChild(NewText("t"))
	div.AppendChild(NewElement("a"))
	div.AppendChild(NewComment("c"))
	div.AppendChild(NewElement("b"))
	if len(div.Children()) != 2 {
		t.Fatalf("Children = %d, want 2", len(div.Children()))
	}
	if len(div.ChildNodes()) != 4 {
		t.Fatalf("ChildNodes = %d, want 4", len(div.ChildNodes()))
	}
}

func TestNextPrevElement(t *testing.T) {
	div := NewElement("div")
	a := NewElement("a")
	div.AppendChild(a)
	div.AppendChild(NewText("x"))
	b := NewElement("b")
	div.AppendChild(b)
	if a.NextElement() != b || b.PrevElement() != a {
		t.Fatal("element sibling navigation wrong")
	}
	if b.NextElement() != nil || a.PrevElement() != nil {
		t.Fatal("boundary navigation wrong")
	}
}

func TestElementIndex(t *testing.T) {
	div := NewElement("div")
	div.AppendChild(NewText("skip"))
	a := NewElement("a")
	b := NewElement("b")
	div.AppendChild(a)
	div.AppendChild(b)
	if a.ElementIndex() != 0 || b.ElementIndex() != 1 {
		t.Fatal("element index wrong")
	}
	if NewElement("x").ElementIndex() != -1 {
		t.Fatal("detached element should be -1")
	}
}

func TestAncestorsRootContains(t *testing.T) {
	doc, html, body, div := buildSample()
	anc := div.Ancestors()
	if len(anc) != 3 || anc[0] != body || anc[1] != html || anc[2] != doc {
		t.Fatalf("ancestors wrong: %v", anc)
	}
	if div.Root() != doc {
		t.Fatal("root wrong")
	}
	if !doc.Contains(div) || !div.Contains(div) || div.Contains(body) {
		t.Fatal("contains wrong")
	}
}

func TestWalkSkipSubtree(t *testing.T) {
	div := NewElement("div")
	skip := NewElement("skip")
	skip.AppendChild(NewElement("inner"))
	div.AppendChild(skip)
	div.AppendChild(NewElement("after"))
	var visited []string
	div.Walk(func(n *Node) bool {
		if n.Type == ElementNode {
			visited = append(visited, n.Tag)
		}
		return n.Tag != "skip"
	})
	if strings.Join(visited, " ") != "div skip after" {
		t.Fatalf("visited = %v", visited)
	}
}

func TestWalkAllowsDetachDuringVisit(t *testing.T) {
	div := NewElement("div")
	for i := 0; i < 3; i++ {
		div.AppendChild(NewElement("p"))
	}
	count := 0
	div.Walk(func(n *Node) bool {
		if n.Tag == "p" {
			count++
			n.Detach()
		}
		return true
	})
	if count != 3 {
		t.Fatalf("visited %d, want 3", count)
	}
	if len(div.Children()) != 0 {
		t.Fatal("children not removed")
	}
}

func TestFindAndFindFirst(t *testing.T) {
	doc, _, body, div := buildSample()
	span1 := NewElement("span")
	span2 := NewElement("span")
	div.AppendChild(span1)
	body.AppendChild(span2)
	spans := doc.Find(func(n *Node) bool { return n.Tag == "span" })
	if len(spans) != 2 || spans[0] != span1 || spans[1] != span2 {
		t.Fatalf("find wrong: %v", spans)
	}
	if doc.FindFirst(func(n *Node) bool { return n.Tag == "span" }) != span1 {
		t.Fatal("findfirst wrong")
	}
	if doc.FindFirst(func(n *Node) bool { return n.Tag == "nope" }) != nil {
		t.Fatal("findfirst should be nil for no match")
	}
}

func TestFindExcludesSelf(t *testing.T) {
	div := NewElement("div")
	if len(div.Find(func(n *Node) bool { return n.Tag == "div" })) != 0 {
		t.Fatal("Find must not include the receiver")
	}
}

func TestElementsAndByID(t *testing.T) {
	doc, _, _, div := buildSample()
	if got := doc.Elements("div"); len(got) != 1 || got[0] != div {
		t.Fatal("Elements(div) wrong")
	}
	if got := doc.Elements("*"); len(got) != 3 {
		t.Fatalf("Elements(*) = %d, want 3", len(got))
	}
	if doc.ElementByID("main") != div {
		t.Fatal("ElementByID wrong")
	}
	if doc.ElementByID("missing") != nil {
		t.Fatal("missing id should be nil")
	}
}

func TestBodyHeadDocumentElement(t *testing.T) {
	doc := NewDocument()
	html := NewElement("html")
	head := NewElement("head")
	body := NewElement("body")
	doc.AppendChild(html)
	html.AppendChild(head)
	html.AppendChild(body)
	inner := NewElement("p")
	body.AppendChild(inner)
	if inner.Body() != body || inner.Head() != head || inner.DocumentElement() != html {
		t.Fatal("structural accessors wrong")
	}
}

func TestCountElements(t *testing.T) {
	doc, _, _, _ := buildSample()
	if doc.CountElements() != 3 {
		t.Fatalf("count = %d, want 3", doc.CountElements())
	}
}

func TestPath(t *testing.T) {
	doc := NewDocument()
	html := NewElement("html")
	body := NewElement("body")
	doc.AppendChild(html)
	html.AppendChild(body)
	d1 := NewElement("div")
	d2 := NewElement("div")
	body.AppendChild(d1)
	body.AppendChild(d2)
	p := NewElement("p")
	d2.AppendChild(p)
	if got := p.Path(); got != "/html[1]/body[1]/div[2]/p[1]" {
		t.Fatalf("path = %q", got)
	}
	if NewText("x").Path() != "" {
		t.Fatal("text node path should be empty")
	}
}

func TestPathDoubleDigitIndex(t *testing.T) {
	body := NewElement("body")
	var last *Node
	for i := 0; i < 12; i++ {
		last = NewElement("p")
		body.AppendChild(last)
	}
	if got := last.Path(); got != "/body[1]/p[12]" {
		t.Fatalf("path = %q", got)
	}
}

func TestSortNodes(t *testing.T) {
	doc, _, body, div := buildSample()
	span := NewElement("span")
	div.AppendChild(span)
	in := []*Node{span, body, div, span} // dup + reversed
	out := SortNodes(doc, in)
	if len(out) != 3 || out[0] != body || out[1] != div || out[2] != span {
		t.Fatalf("sorted = %v", tagsOf(out))
	}
}

func TestSortNodesForeign(t *testing.T) {
	doc, _, body, _ := buildSample()
	foreign := NewElement("zz")
	out := SortNodes(doc, []*Node{foreign, body})
	if out[0] != body || out[1] != foreign {
		t.Fatal("foreign nodes should sort last")
	}
}

// TestSortNodesMatchesDocumentOrder: over random trees and random
// selections with duplicates and nodes from elsewhere, SortNodes keeps
// one of each node, those under root in document order and the rest
// after them in the order given.
func TestSortNodesMatchesDocumentOrder(t *testing.T) {
	f := func(shape, picks []uint8) bool {
		root := NewElement("root")
		all := []*Node{root}
		for _, op := range shape {
			n := NewElement("n")
			all[int(op)%len(all)].AppendChild(n)
			all = append(all, n)
		}
		var inOrder []*Node
		root.Walk(func(d *Node) bool { inOrder = append(inOrder, d); return true })
		foreign := []*Node{NewElement("x"), NewElement("y")}
		var sel []*Node
		for _, p := range picks {
			if p%8 == 0 {
				sel = append(sel, foreign[p/8%2])
			} else {
				sel = append(sel, all[int(p)%len(all)])
			}
		}
		var want []*Node
		for _, d := range inOrder {
			for _, n := range sel {
				if n == d {
					want = append(want, d)
					break
				}
			}
		}
		for _, n := range sel {
			if n.Parent == nil && n != root && !containsNode(want, n) {
				want = append(want, n)
			}
		}
		got := SortNodes(root, append([]*Node(nil), sel...))
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func containsNode(list []*Node, n *Node) bool {
	for _, m := range list {
		if m == n {
			return true
		}
	}
	return false
}

// TestSortNodesAllocsIndependentOfDocument: sorting indexes the selected
// nodes only, so what it allocates does not grow with the document.
func TestSortNodesAllocsIndependentOfDocument(t *testing.T) {
	allocs := func(size int) float64 {
		doc := NewDocument()
		body := NewElement("body")
		doc.AppendChild(body)
		for i := 0; i < size; i++ {
			body.AppendChild(NewElement("p"))
		}
		sel := make([]*Node, 2)
		return testing.AllocsPerRun(20, func() {
			sel[0], sel[1] = body.LastChild, body.FirstChild
			SortNodes(doc, sel)
		})
	}
	if small, large := allocs(10), allocs(5000); large > small {
		t.Fatalf("sorting 2 nodes allocates %.0f times in a 10-node document, %.0f in a 5000-node one", small, large)
	}
}

// Property: a randomly built tree always maintains link invariants.
func TestQuickTreeInvariants(t *testing.T) {
	f := func(ops []uint8) bool {
		root := NewElement("root")
		pool := []*Node{root}
		for _, op := range ops {
			target := pool[int(op>>2)%len(pool)]
			switch op % 4 {
			case 0:
				n := NewElement("n")
				target.AppendChild(n)
				pool = append(pool, n)
			case 1:
				n := NewElement("n")
				target.PrependChild(n)
				pool = append(pool, n)
			case 2:
				if target != root {
					target.Detach()
				}
			case 3:
				if target != root && target.Parent != nil {
					target.InsertAfter(NewElement("s"))
				}
			}
		}
		return checkInvariants(root)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func checkInvariants(n *Node) bool {
	var prev *Node
	for c := n.FirstChild; c != nil; c = c.NextSibling {
		if c.Parent != n || c.PrevSibling != prev {
			return false
		}
		if !checkInvariants(c) {
			return false
		}
		prev = c
	}
	return n.LastChild == prev
}

func tagsOf(nodes []*Node) string {
	tags := make([]string, len(nodes))
	for i, n := range nodes {
		tags[i] = n.Tag
	}
	return strings.Join(tags, " ")
}
