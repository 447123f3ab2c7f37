package css

import (
	"testing"

	"msite/internal/html"
)

// FuzzParseStylesheet: the stylesheet parser is error-tolerant by
// contract — arbitrary input must parse without panicking — and so is
// the pruner over what it parsed: whatever the input, pruning yields a
// sheet whose rules are a subset of the input's, and is idempotent.
func FuzzParseStylesheet(f *testing.F) {
	seeds := []string{
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
	}
	for _, s := range seeds {
		f.Add(s)
	}
	elems := elementsOf(html.Parse(pruneDoc))
	f.Fuzz(func(t *testing.T, src string) {
		sheet := ParseStylesheet(src)
		if sheet == nil {
			t.Fatal("nil sheet")
		}
		checkPruned(t, src, elems)
	})
}

// FuzzParseSelector: selector parsing either errors or yields a selector
// that can be matched without panicking.
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
		if err != nil {
			return
		}
		if sel.Specificity() < 0 {
			t.Fatalf("negative specificity for %q", src)
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
