package css_test

import (
	"fmt"
	"maps"
	"net/http/httptest"
	"reflect"
	"testing"

	"msite/internal/attr"
	"msite/internal/css"
	"msite/internal/dom"
	"msite/internal/experiments"
	"msite/internal/fetch"
	"msite/internal/html"
	"msite/internal/layout"
	"msite/internal/origin"
)

// checkShared styles every element of doc with shared, parents first, and
// fails unless each style equals the one a Styler from fresh — one that
// has styled nothing — computes for the element from the same parent
// style. It walks the document from its root, and the body again as
// layout does, as a root of its own, so that it meets the very styles a
// layout with shared was handed. It returns how many elements the
// document has and how many distinct styles shared handed out for them.
func checkShared(t *testing.T, name string, doc *dom.Node, shared *css.Styler, fresh func() *css.Styler) (elements, distinct int) {
	t.Helper()
	seen := make(map[uintptr]bool)
	var walk func(n *dom.Node, parent css.Style)
	walk = func(n *dom.Node, parent css.Style) {
		got := shared.ComputedStyle(n, parent)
		if want := fresh().ComputedStyle(n, parent); !maps.Equal(got, want) {
			t.Fatalf("%s: <%s> element %d shares the style %v, a fresh styler computes %v", name, n.Tag, elements, got, want)
		}
		elements++
		seen[reflect.ValueOf(got).Pointer()] = true
		for c := n.FirstChild; c != nil; c = c.NextSibling {
			if c.Type == dom.ElementNode {
				walk(c, got)
			}
		}
	}
	if body := doc.Body(); body != nil {
		walk(body, nil)
	}
	elements, seen = 0, make(map[uintptr]bool)
	if root := doc.DocumentElement(); root != nil {
		walk(root, nil)
	}
	return elements, len(seen)
}

// TestSharedStyleMatchesFresh is style sharing's oracle on the pages a
// build styles: the tidied forum page with its stylesheet inlined, and
// each subpage as served. Every page is laid out first with the Styler
// under test, so a layout that wrote into a shared style would show.
func TestSharedStyleMatchesFresh(t *testing.T) {
	for _, seed := range []int64{42, 7} {
		cfg := origin.DefaultForumConfig()
		cfg.Seed = seed
		srv := httptest.NewServer(origin.NewForum(cfg).Handler())
		f := fetch.New(nil)
		page, err := f.Get(srv.URL + "/")
		if err != nil {
			srv.Close()
			t.Fatal(err)
		}
		doc := html.Tidy(string(page.Body))
		if n, err := f.InlineStylesheets(doc, page.URL); err != nil || n == 0 {
			srv.Close()
			t.Fatalf("inlined %d stylesheets: %v", n, err)
		}
		pages := map[string]*dom.Node{"forum /": doc.Clone()}
		res, err := (&attr.Applier{}).Apply(experiments.SpecForForum(srv.URL), doc)
		srv.Close()
		if err != nil {
			t.Fatal(err)
		}
		for _, sub := range res.Subpages {
			pages["subpage "+sub.Name] = html.Parse(string(attr.SerializeSubpage(sub)))
		}
		for name, p := range pages {
			name = fmt.Sprintf("seed %d %s", seed, name)
			var memo css.Sheets
			shared := css.StylerForDocument(p, &memo)
			layout.Layout(p, shared, layout.Viewport{Width: 1024})
			elements, distinct := checkShared(t, name, p, shared, func() *css.Styler {
				return css.StylerForDocument(p, &memo)
			})
			t.Logf("%s: %d elements, %d distinct styles", name, elements, distinct)
			if name == fmt.Sprintf("seed %d forum /", seed) && distinct*4 > elements {
				t.Errorf("%s: %d distinct styles for %d elements; elements that cascade alike do not share", name, distinct, elements)
			}
		}
	}
}

// FuzzComputedStyleShared: for any document and stylesheet, a Styler that
// shares styles computes every element's style as a fresh one does: after
// a layout has used its styles, after it has styled the document under
// other media and after a sheet was added to it.
func FuzzComputedStyleShared(f *testing.F) {
	for _, seed := range []struct{ page, sheet string }{
		{`<p class="a">x<p class="a">y`, `.a { color: red }`},
		{`<div><p style="font-size: 2em">a<span>b</span></p><p>c</p></div>`, `div { font-size: 10px } span { font-size: smaller }`},
		{`<p style="color: red">a</p><p style="color: tan">b</p>`, ``},
		{`<div><p class="b">a</p><p class="b" id="x">b</p></div>`, `.b, p.b#x { color: red } p.b { color: blue }`},
		{`<ul><li>a<li class="b">b<li>c</ul>`, `li:nth-child(2n+1) { color: blue } .b { color: inherit !important } li + li { margin-top: 4px }`},
		{`<table cellpadding="4"><tr><td>a<td style="padding-left: 2px">b</table><table><tr><td>c</table>`, `td { color: navy }`},
		{`<table><tr><td>a<td id="x" style="padding: 3px !important">b</table>`, `td { padding: 1px } #x { padding: 9px !important }`},
		{`<p><b>a</b><i style="color: inherit">b</i></p>`, `@media print { b { display: none } } @media screen { i { color: green } }`},
		{`<div style="">x</div><div>y</div>`, `div { color: red } div { color: blue }`},
	} {
		f.Add(seed.page, seed.sheet)
	}
	f.Fuzz(func(t *testing.T, page, src string) {
		doc := html.Parse(page)
		sheet := css.ParseStylesheet(src)
		extra := css.ParseStylesheet("p, td { color: teal }")

		shared := css.NewStyler(sheet)
		layout.Layout(doc, shared, layout.Viewport{Width: 320})
		checkShared(t, "laid out", doc, shared, func() *css.Styler { return css.NewStyler(sheet) })
		shared.SetMedia("print")
		checkShared(t, "under print", doc, shared, func() *css.Styler {
			s := css.NewStyler(sheet)
			s.SetMedia("print")
			return s
		})
		shared.SetMedia("screen", "all")
		checkShared(t, "back on screen", doc, shared, func() *css.Styler { return css.NewStyler(sheet) })
		shared.AddSheet(extra)
		checkShared(t, "a sheet added", doc, shared, func() *css.Styler { return css.NewStyler(sheet, extra) })
	})
}
