package html

import (
	"slices"
	"strings"
	"testing"

	"msite/internal/dom"
)

// FuzzParse: the parser must never panic, must terminate, and must
// produce output whose re-parse is stable. Every element's attributes
// are a window of one slab: setting a new key on one element and
// removing one of its keys must leave every other element's attributes
// as they were.
func FuzzParse(f *testing.F) {
	seeds := []string{
		"",
		"<html><body><p>hi</p></body></html>",
		"<div><span>x</div>after",
		"<script>if (a<b) {</script>",
		"<!DOCTYPE html><!-- c --><p>&amp;&#65;&#x41;&nosuch;",
		"<table><tr><td>a<td>b<tr>c",
		"<a href='x' b=\"y\" c=d disabled>t</a>",
		"< not a tag <img src=x.png /><",
		strings.Repeat("<div>", 100),
		"<p style=\"color:red\">mixed <B>CASE</b></P>",
		"<a href=1 id=x><b class=y>z</b><i title=t lang=en></i></a>",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		doc := Parse(src)
		if doc == nil {
			t.Fatal("nil document")
		}
		out := Render(doc)
		if Render(Parse(out)) != out {
			t.Fatalf("render not stable for %q", src)
		}
		checkAttrWindows(t, doc)
		tidied := TidyString(src)
		if TidyString(tidied) != tidied {
			t.Fatalf("tidy not idempotent for %q", src)
		}
	})
}

// checkAttrWindows edits each element of doc's attributes in document
// order, which is the order the tokenizer cut them from its slab: a new
// key set and the first key removed. After each edit the next element's
// attributes must be untouched, and at the end every element's must be
// its own edited list.
func checkAttrWindows(t *testing.T, doc *dom.Node) {
	t.Helper()
	var els []*dom.Node
	doc.Walk(func(n *dom.Node) bool {
		if n.Type == dom.ElementNode {
			els = append(els, n)
		}
		return true
	})
	want := make([][]dom.Attr, len(els))
	for i, el := range els {
		want[i] = slices.Clone(el.Attrs)
	}
	// first is the index of the first attribute SetAttr and DelAttr
	// would take for key, or -1.
	first := func(attrs []dom.Attr, key string) int {
		key = strings.ToLower(key)
		return slices.IndexFunc(attrs, func(a dom.Attr) bool { return a.Key == key })
	}
	const newKey = "data-fuzz-new"
	for i, el := range els {
		el.SetAttr(newKey, "set")
		if j := first(want[i], newKey); j >= 0 {
			want[i][j].Val = "set"
		} else {
			want[i] = append(want[i], dom.Attr{Key: newKey, Val: "set"})
		}
		key := el.Attrs[0].Key
		el.DelAttr(key)
		if j := first(want[i], key); j >= 0 {
			want[i] = slices.Delete(want[i], j, j+1)
		}
		if i+1 < len(els) && !slices.Equal(els[i+1].Attrs, want[i+1]) {
			t.Fatalf("editing <%s> changed the next element <%s>'s attributes to %v, want %v",
				el.Tag, els[i+1].Tag, els[i+1].Attrs, want[i+1])
		}
	}
	for i, el := range els {
		if !slices.Equal(el.Attrs, want[i]) {
			t.Fatalf("<%s> has attributes %v after the edits, want %v", el.Tag, el.Attrs, want[i])
		}
	}
}
