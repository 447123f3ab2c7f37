package css

import (
	"reflect"
	"strings"
	"sync"
	"testing"

	"msite/internal/dom"
	"msite/internal/html"
)

func elementsOf(doc *dom.Node) []*dom.Node { return doc.Elements("*") }

const pruneDoc = `<html><body><div class="used"><a href="/x">x</a>
	<input type="checkbox"><p>text</p></div></body></html>`

// TestPruneKeepRules pins, one case each, what Prune drops and what it
// may not.
func TestPruneKeepRules(t *testing.T) {
	cases := []struct{ name, sheet, want string }{
		{"dead rule goes, live rules stay as written and in order",
			".used { color: red }\n.unused { color: blue }\n  p{margin:0}",
			".used { color: red }p{margin:0}"},
		{"one live selector keeps the whole list",
			".unused, div.used > p { x: y }", ".unused, div.used > p { x: y }"},
		{"comments are not part of a rule",
			"/* skin */ .used { /* why */ color: red } /* tail */", ".used {   color: red }"},
		{"an unparseable selector list is kept verbatim",
			".unused::before { content: 'x' } .unused { a: b } p:frob { c: d }",
			".unused::before { content: 'x' }p:frob { c: d }"},
		{"a block without a declaration is not read, so stays",
			".unused { & b { c: d } }", ".unused { & b { c: d } }"},
		{":hover, :focus, :active, :link, :visited and :checked are taken to hold",
			"a:hover{a:b} p:focus{a:b} a:active{a:b} a:link{a:b} a:visited{a:b} input:checked + p{a:b} span:hover{a:b}",
			"a:hover{a:b}p:focus{a:b}a:active{a:b}a:link{a:b}a:visited{a:b}input:checked + p{a:b}"},
		{":not of a user state can hold, :not of a fact cannot",
			"input:not(:checked){a:b} a:not(:hover){a:b} p:not(p){a:b}",
			"input:not(:checked){a:b}a:not(:hover){a:b}"},
		{"at-rules other than @media are kept verbatim",
			`@import url("a.css"); @font-face { font-family: F; src: url(f.woff) } .unused{a:b} @keyframes k { from { top: 0 } to { top: 9px } } @page { margin: 1cm }`,
			`@import url("a.css");@font-face { font-family: F; src: url(f.woff) }@keyframes k { from { top: 0 } to { top: 9px } }@page { margin: 1cm }`},
		{"an @import a rule precedes is dead already, and must not come back to life",
			`@charset "utf-8"; @layer a, b; @import "live.css"; .unused{a:b} @import "dead.css"; p{a:b}`,
			`@charset "utf-8";@layer a, b;@import "live.css";p{a:b}`},
		{"@media is pruned inside, whatever its condition",
			"@media print { .unused{a:b} p{a:b} } @media (max-width: 480px) { .used{c:d} @media screen { .unused{e:f} } }",
			"@media print{p{a:b}}@media (max-width: 480px){.used{c:d}}"},
		{"@media with nothing left is dropped",
			"@media screen { .unused{a:b} } p{a:b}", "p{a:b}"},
		{"an @import inside a block is dead", "@media screen { @import 'x.css'; p{a:b} }", "@media screen{p{a:b}}"},
		{"a sheet that ends inside a block is not cut into",
			".unused{a:b} /**/ @media screen { p { color: red", ".unused{a:b}   @media screen { p { color: red"},
		{"text after the last rule", "p{a:b} .used", "p{a:b}.used"},
		{"nothing live", ".unused{a:b}", ""},
	}
	elems := elementsOf(html.Parse(pruneDoc))
	for _, c := range cases {
		if got := ParseStylesheet(c.sheet).Prune(elems); got != c.want {
			t.Errorf("%s:\n sheet %s\n   got %s\n  want %s", c.name, c.sheet, got, c.want)
		}
	}
}

// rulesOf is what a styler reads of a sheet.
func rulesOf(sheet *Stylesheet) []string {
	var out []string
	for _, r := range sheet.Rules {
		out = append(out, r.Media+"|"+r.Source)
	}
	return out
}

// checkPruned holds one pruning to the pruner's contract: the output
// parses to a subsequence of the input's rules — every rule of the input
// that may style an element among them (all of them, when the input ends
// inside a block) — and pruning it again changes nothing.
func checkPruned(t *testing.T, src string, elems []*dom.Node) {
	t.Helper()
	sheet := ParseStylesheet(src)
	pruned := sheet.Prune(elems)
	again := ParseStylesheet(pruned)
	if twice := again.Prune(elems); twice != pruned {
		t.Fatalf("pruning is not idempotent:\n once %q\ntwice %q\n from %q", pruned, twice, src)
	}
	in, out := rulesOf(sheet), rulesOf(again)
	i := 0
	for _, r := range out {
		for i < len(in) && in[i] != r {
			i++
		}
		if i == len(in) {
			t.Fatalf("pruned sheet has rule %q, not a rule of the input (in that order):\n  in %q\n out %q", r, in, out)
		}
		i++
	}
	live := 0
	for i := range sheet.Rules {
		if sheet.unclosed || sheet.Rules[i].mayStyle(elems) {
			live++
		}
	}
	if live != len(out) {
		t.Fatalf("%d rules of the input may style an element, the pruned sheet has %d:\n  in %q\n out %q", live, len(out), in, out)
	}
}

func TestPruneIsIdempotentAndASubset(t *testing.T) {
	elems := elementsOf(html.Parse(pruneDoc))
	for _, src := range []string{
		"", "p", "}", "p{", "@media", "@media screen {", "@import",
		".used { color: red } .unused { color: blue } p{margin:0}",
		"@media screen { p { a: b } .unused { c: d } } @media print { .unused { e: f } }",
		"} p { a: b } } .used { c: d }",
		"a:hover, .unused { a: b } @font-face { src: url(x) } p:not(.x) { c: d }",
		"/* c */ p /* d */ { a: b /* e */ } @import 'late.css'; div{a:b}",
	} {
		checkPruned(t, src, elems)
	}
}

// TestPrunedSheetStylesTheSame: against the document it was pruned for, a
// pruned sheet computes every element's style exactly as the whole sheet
// does — the rules dropped are rules the cascade never reached.
func TestPrunedSheetStylesTheSame(t *testing.T) {
	doc := html.Parse(`<html><head><style>
		body { font-size: 13px; color: #222 }
		.tborder { border: 1px solid #0b198c } .alt1 td { padding: 4px !important }
		td { padding: 1px } #go { font-weight: bold } #gone { color: red }
		@media screen { .alt1 { background-color: #f5f5ff } .alt9 { color: blue } }
		@media print { td { display: none } }
		a:hover { color: red } p + p { margin-top: 9px }
	</style></head><body><table class="tborder"><tr class="alt1"><td>a</td><td id="go">b</td></tr></table>
	<p>one</p><p>two <a href="/x">x</a></p></body></html>`)
	style := doc.Elements("style")[0]
	whole := ParseStylesheet(StyleSource(style))
	pruned := ParseStylesheet(whole.Prune(elementsOf(doc)))
	if len(pruned.Rules) >= len(whole.Rules) {
		t.Fatalf("nothing pruned: %d of %d rules left", len(pruned.Rules), len(whole.Rules))
	}
	a, b := NewStyler(whole), NewStyler(pruned)
	var walk func(n *dom.Node, pa, pb Style)
	walk = func(n *dom.Node, pa, pb Style) {
		sa, sb := a.ComputedStyle(n, pa), b.ComputedStyle(n, pb)
		if !reflect.DeepEqual(sa, sb) {
			t.Errorf("<%s> styled %v by the whole sheet, %v by the pruned one", n.Tag, sa, sb)
		}
		for c := n.FirstChild; c != nil; c = c.NextSibling {
			if c.Type == dom.ElementNode {
				walk(c, sa, sb)
			}
		}
	}
	walk(doc.Elements("html")[0], nil, nil)
}

func TestMayMatch(t *testing.T) {
	doc := html.Parse(pruneDoc)
	a, box := doc.Elements("a")[0], doc.Elements("input")[0]
	for _, c := range []struct {
		sel        string
		n          *dom.Node
		match, may bool
	}{
		{"a", a, true, true},
		{"a:hover", a, false, true},
		{"div:hover > a:visited", a, false, true},
		{"p:hover > a", a, false, false},
		{"a:not(:focus)", a, true, true},
		{"input:checked", box, false, true},
		{"input:not(:checked)", box, true, true},
		{"input:disabled", box, false, false},
	} {
		sel := MustSelector(c.sel)
		if got := sel.Match(c.n); got != c.match {
			t.Errorf("%s Match = %v, want %v", c.sel, got, c.match)
		}
		if got := sel.MayMatch(c.n); got != c.may {
			t.Errorf("%s MayMatch = %v, want %v", c.sel, got, c.may)
		}
	}
}

// TestSheetsParseEachTextOnce: a memo parses a text on first sight and
// hands every later asker, on any goroutine, that one sheet; without a
// memo every styler parses for itself.
func TestSheetsParseEachTextOnce(t *testing.T) {
	doc := html.Parse(`<html><head><style>p { color: red }</style><style>b { color: blue }</style>
		<style media="print">p { display: none }</style></head><body><p>x</p></body></html>`)
	var memo Sheets
	before := ParseCount()
	var wg sync.WaitGroup
	stylers := make([]*Styler, 8)
	for i := range stylers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			stylers[i] = StylerForDocument(doc.Clone(), &memo)
		}()
	}
	wg.Wait()
	if got := ParseCount() - before; got != 2 {
		t.Fatalf("%d parses for two screen sheets in %d documents", got, len(stylers))
	}
	for _, s := range stylers[1:] {
		if len(s.sheets) != 2 || s.sheets[0] != stylers[0].sheets[0] || s.sheets[1] != stylers[0].sheets[1] {
			t.Fatal("stylers over one memo do not share its sheets")
		}
	}
	if p := doc.Elements("p")[0]; stylers[0].ComputedStyle(p, nil).Get("color", "") != "red" {
		t.Fatal("memoised sheet does not style")
	}

	before = ParseCount()
	StylerForDocument(doc)
	StylerForDocument(doc, nil)
	if got := ParseCount() - before; got != 4 {
		t.Fatalf("%d parses by two stylers without a memo, want 4", got)
	}
}

func TestRuleSourceIsTheRuleAsWritten(t *testing.T) {
	src := "a , b{ color : red }\n@media screen { p > i {margin:0 } }"
	sheet := ParseStylesheet(src)
	var got []string
	for _, r := range sheet.Rules {
		got = append(got, r.Source)
		if !strings.Contains(src, r.Source) {
			t.Errorf("source %q is not a span of the sheet", r.Source)
		}
	}
	if want := []string{"a , b{ color : red }", "p > i {margin:0 }"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("sources %q, want %q", got, want)
	}
}
