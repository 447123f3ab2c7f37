package css

import (
	"fmt"
	"net/http/httptest"
	"slices"
	"testing"

	"msite/internal/dom"
	"msite/internal/html"
	"msite/internal/origin"
)

// fuzzSheets seed FuzzParseStylesheet, and TestParseMatchesOracle runs
// them too. Two hold a stray closing bracket: it takes the nesting depth
// below zero, so no later separator of its block or selector list cuts,
// which is how the parser has always read it. The last five are comment
// edge cases: empty and adjacent, `/*/` (which does not close), an
// unterminated one after a rule, one inside a string (stripped like any
// other) and a stray `*/`.
var fuzzSheets = []string{
	"",
	"p { color: red }",
	"@media screen { a, b.c { margin: 1px 2px !important } }",
	"/* unterminated",
	".a { background: url(x;y.png) }",
	"p { color: red",
	"@import url(x.css); @font-face { src: url(y) }",
	"a[href^=\"/\"]:not(.x):nth-child(2n+1) { x: y }",
	"} p { a: b } @media print { .unused { c: d } p:hover { e: f } } @import 'late';",
	"@media screen { @media (min-width: 1px) { p { a: b",
	"p { a: b); c: d } q, r) , s { e: f }",
	"p { a: b]; c: d; MARGIN: 1PX 2PX !IMPORTANT } s ) t { border: thin solid red }",
	"/**//**/",
	"/*/ x */",
	"a{} /* b{}",
	`a{content:"/*"}b{}`,
	"a { b: c } */ d { e: f }",
}

// FuzzParseStylesheet: the stylesheet parser is error-tolerant by
// contract — arbitrary input must parse without panicking — and so is
// the pruner over what it parsed: whatever the input, pruning yields a
// sheet whose rules are a subset of the input's, and is idempotent. The
// parse, of the input as a sheet, a declaration block and a selector
// list, is the oracle's.
func FuzzParseStylesheet(f *testing.F) {
	for _, s := range fuzzSheets {
		f.Add(s)
	}
	elems := elementsOf(html.Parse(pruneDoc))
	f.Fuzz(func(t *testing.T, src string) {
		sheet := ParseStylesheet(src)
		if sheet == nil {
			t.Fatal("nil sheet")
		}
		checkAgainstOracle(t, "fuzz input", src)
		checkPruned(t, src, elems)
	})
}

// FuzzParseSelector: selector parsing either errors or yields a selector
// that can be matched without panicking, and reads every input as the
// oracle does.
func FuzzParseSelector(f *testing.F) {
	seeds := []string{
		"*", "div p", "a > b + c ~ d", "#x.y[z=\"w\"]:first-child",
		":not(.a)", "td:nth-child(2n+1)", "a:contains('x')",
		"", "(", "[", ":", "a[",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		sel, err := ParseSelector(src)
		want, wantErr := oracleParseSelector(src)
		if fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("ParseSelector(%q) error %v, oracle's %v", src, err, wantErr)
		}
		if err != nil {
			return
		}
		if d := selectorDiff(sel, want); d != "" {
			t.Fatalf("ParseSelector(%q) differs from the oracle: %s", src, d)
		}
		if sel.Specificity() < 0 {
			t.Fatalf("negative specificity for %q", src)
		}
	})
}

// FuzzSelect holds Select to its contract over the forum entry page:
// for any selector list it never panics, it errors exactly when
// ParseSelectorList does, and otherwise it selects each node of the
// document that some selector of the list matches, once, in document
// order. The seeds are the evaluation spec's selectors.
func FuzzSelect(f *testing.F) {
	for _, s := range []string{
		"#loginform", "#logo", "head style", "#navlinks", "#banner",
		"#shoptour object", "#forums", "#pic", "#forums tr, table a, #forums",
		"", ",", "a,", "td:nth-child(2n+1) a", ":not(",
	} {
		f.Add(s)
	}
	rec := httptest.NewRecorder()
	origin.NewForum(origin.DefaultForumConfig()).Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/", nil))
	doc := html.Tidy(rec.Body.String())
	f.Fuzz(func(t *testing.T, selector string) {
		nodes, err := Select(doc, selector)
		sels, parseErr := ParseSelectorList(selector)
		if (err != nil) != (parseErr != nil) {
			t.Fatalf("Select(%q) error %v, ParseSelectorList's %v", selector, err, parseErr)
		}
		if err != nil {
			if len(nodes) != 0 {
				t.Fatalf("Select(%q) errored and selected %d nodes", selector, len(nodes))
			}
			return
		}
		var want []*dom.Node
		doc.Walk(func(n *dom.Node) bool {
			for _, sel := range sels {
				if sel.Match(n) {
					want = append(want, n)
					break
				}
			}
			return true
		})
		if !slices.Equal(nodes, want) {
			t.Fatalf("Select(%q) selected %d nodes; %d match in document order", selector, len(nodes), len(want))
		}
	})
}

// FuzzParseValues: length and color parsing must be total functions.
func FuzzParseValues(f *testing.F) {
	for _, s := range []string{"10px", "#fff", "rgb(1,2,3)", "50%", "auto", "-1e99em", "rgba(,,,)"} {
		f.Add(s)
	}
	f.Fuzz(func(_ *testing.T, src string) {
		_, _ = ParseLength(src, 16)
		_, _ = ParseColor(src)
	})
}
