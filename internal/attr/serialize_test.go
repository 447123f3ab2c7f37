package attr_test

import (
	"bytes"
	"fmt"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"msite/internal/attr"
	"msite/internal/css"
	"msite/internal/dom"
	"msite/internal/experiments"
	"msite/internal/fetch"
	"msite/internal/html"
	"msite/internal/origin"
	"msite/internal/spec"
)

// buildForum runs a build's DOM steps up to serialisation against a
// synthetic forum: fetch, inline the linked stylesheet (the 30 KB one a
// dependency attribute clones), apply the spec, re-anchor URLs.
func buildForum(t *testing.T, seed int64, mutate func(*spec.Spec)) *attr.Result {
	t.Helper()
	cfg := origin.DefaultForumConfig()
	cfg.Seed = seed
	srv := httptest.NewServer(origin.NewForum(cfg).Handler())
	t.Cleanup(srv.Close)
	f := fetch.New(nil)
	page, err := f.Get(srv.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	doc := html.Tidy(string(page.Body))
	if n, err := f.InlineStylesheets(doc, page.URL); err != nil || n == 0 {
		t.Fatalf("inlined %d stylesheets: %v", n, err)
	}
	sp := experiments.SpecForForum(srv.URL)
	if mutate != nil {
		mutate(sp)
	}
	res, err := (&attr.Applier{}).Apply(sp, doc)
	if err != nil {
		t.Fatal(err)
	}
	for _, sub := range res.Subpages {
		attr.AbsolutizeURLs(sub.Doc, page.URL, "/subpage/", "/asset/")
	}
	return res
}

// widen puts the stylesheets on every subpage and has every subpage ship
// its DOM as a page of its own.
func widen(sp *spec.Spec) {
	for i := range sp.Objects {
		obj := &sp.Objects[i]
		switch obj.Name {
		case "styles":
			for _, to := range []string{"forums", "nav"} {
				obj.Attributes = append(obj.Attributes,
					spec.Attribute{Type: spec.AttrDependency, Params: map[string]string{"subpage": to}})
			}
		case "forums":
			obj.Attributes = []spec.Attribute{{Type: spec.AttrSubpage, Params: map[string]string{"title": "Forums"}}}
		case "nav":
			obj.Attributes[1].Params = map[string]string{"title": "Navigation"}
		}
	}
}

// computedStyles styles every element of doc but the <style>s, in
// document order, from the document's own sheets.
func computedStyles(doc *dom.Node) (tags []string, styles []css.Style) {
	styler := css.StylerForDocument(doc)
	var walk func(n *dom.Node, parent css.Style)
	walk = func(n *dom.Node, parent css.Style) {
		for c := n.FirstChild; c != nil; c = c.NextSibling {
			if c.Type != dom.ElementNode || c.Tag == "style" {
				continue
			}
			st := styler.ComputedStyle(c, parent)
			tags, styles = append(tags, c.Tag), append(styles, st)
			walk(c, st)
		}
	}
	walk(doc, nil)
	return tags, styles
}

func styleRules(doc *dom.Node) (n int) {
	for _, style := range doc.Elements("style") {
		n += len(css.ParseStylesheet(css.StyleSource(style)).Rules)
	}
	return n
}

// TestPrunedSubpagesStyleTheSame is the pruner's oracle: on every subpage
// of the forum that ships its DOM with a stylesheet — the evaluation
// spec's login page, and all three under a spec that hands every subpage
// the sheets — every element computes the same style from the sheets
// SerializeSubpage left as from the sheets it was given, far fewer rules
// are left, and serialising again changes nothing.
func TestPrunedSubpagesStyleTheSame(t *testing.T) {
	for _, seed := range []int64{42, 7} {
		for name, tc := range map[string]struct {
			mutate func(*spec.Spec)
			styled []string
		}{
			"evaluation": {nil, []string{"login"}},
			"widened":    {widen, []string{"login", "nav", "forums"}},
		} {
			t.Run(fmt.Sprintf("%s/seed%d", name, seed), func(t *testing.T) {
				var styled []string
				for _, sub := range buildForum(t, seed, tc.mutate).Subpages {
					if len(sub.Doc.Elements("style")) == 0 {
						continue
					}
					styled = append(styled, sub.Name)
					if why := attr.StylesKeptWhole(sub); why != "" {
						t.Fatalf("%s keeps its sheets whole: %s", sub.Name, why)
					}
					whole := sub.Doc.Clone()
					wantTags, want := computedStyles(whole)
					page := attr.SerializeSubpage(sub)
					gotTags, got := computedStyles(sub.Doc)
					if !reflect.DeepEqual(gotTags, wantTags) {
						t.Fatalf("%s: pruning changed the elements: %v, were %v", sub.Name, gotTags, wantTags)
					}
					for i := range want {
						if !reflect.DeepEqual(got[i], want[i]) {
							t.Errorf("%s: element %d <%s> computes %v, from the whole sheets %v", sub.Name, i, wantTags[i], got[i], want[i])
						}
					}
					before, after := styleRules(whole), styleRules(sub.Doc)
					t.Logf("%s: %d → %d rules, %d → %d B", sub.Name, before, after, len(html.Render(whole)), len(page))
					if after == 0 || after*4 > before {
						t.Errorf("%s: %d of %d rules left", sub.Name, after, before)
					}
					if again := attr.SerializeSubpage(sub); !bytes.Equal(again, page) {
						t.Errorf("%s: serialising twice gives %d then %d bytes", sub.Name, len(page), len(again))
					}
				}
				if !reflect.DeepEqual(styled, tc.styled) {
					t.Fatalf("subpages shipping a stylesheet: %v, want %v", styled, tc.styled)
				}
			})
		}
	}
}

// TestSerializeSubpagePrunesOrKeepsWhole pins when a subpage's sheets are
// pruned and when the device can change the document under them, so that
// they ship as they are.
func TestSerializeSubpagePrunesOrKeepsWhole(t *testing.T) {
	const (
		first  = `<style>body{margin:0} .box{color:red} .gone{color:blue}</style>`
		print  = `<style media="print">.box{display:none} .gone{display:none}</style>`
		third  = `<style>.gone{a:b}</style>`
		script = `<script>document.body.className = "gone";</script>`
	)
	pruned := `<style>body{margin:0}.box{color:red}</style><style media="print">.box{display:none}</style></head>`
	whole := first + print + third + `</head>`
	for _, c := range []struct {
		name, inBox string
		params      map[string]string
		ajaxify     bool
		why, head   string
	}{
		{name: "a page of its own is pruned: dead rules go, an emptied <style> goes, a print sheet is pruned like any other",
			head: pruned},
		{name: "an origin script can restyle the page", inBox: script,
			why: "it carries a script", head: whole},
		{name: "an ajax subpage joins the entry page's document", params: map[string]string{"ajax": "true"},
			why: "it is loaded into the entry page (ajax)", head: whole},
		{name: "a rewritten action loads markup into the page", ajaxify: true,
			why: "an action loads responses into it", head: whole},
	} {
		sp := &spec.Spec{Name: "t", Origin: "http://o.test/", Objects: []spec.Object{
			{Name: "box", Selector: "#box", Attributes: []spec.Attribute{{Type: spec.AttrSubpage, Params: c.params}}},
			{Name: "styles", Selector: "head style", Attributes: []spec.Attribute{
				{Type: spec.AttrDependency, Params: map[string]string{"subpage": "box"}}}},
		}}
		if c.ajaxify {
			sp.Objects[0].Attributes = append(sp.Objects[0].Attributes, spec.Attribute{Type: spec.AttrAJAXify})
			sp.Actions = []spec.Action{{ID: 1, Match: `do=showpic&id=(\d+)`, Target: "http://o.test/pic?id=$1"}}
		}
		doc := html.Tidy(`<html><head>` + first + print + third + `</head><body><div id="box" class="box">` +
			`<a href="/site.php?do=showpic&id=3">pic</a>` + c.inBox + `</div><p class="gone">rest</p></body></html>`)
		res, err := (&attr.Applier{}).Apply(sp, doc)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		sub := res.Subpages[0]
		if why := attr.StylesKeptWhole(sub); why != c.why {
			t.Errorf("%s: kept whole because %q, want %q", c.name, why, c.why)
		}
		if page := string(attr.SerializeSubpage(sub)); !strings.Contains(page, c.head) {
			t.Errorf("%s: page is\n%s\nwant its head to end\n%s", c.name, page, c.head)
		}
		// What a screen styler reads of the print sheet is nothing, pruned
		// or whole.
		if p := sub.Doc.ElementByID("box"); css.StylerForDocument(sub.Doc).ComputedStyle(p, nil).Get("display", "") != "block" {
			t.Errorf("%s: the print sheet styles the screen", c.name)
		}
	}
}
