package css

import (
	"strings"
	"testing"

	"msite/internal/html"
)

func benchDoc() string {
	var b strings.Builder
	b.WriteString(`<html><head><style>`)
	for i := 0; i < 50; i++ {
		b.WriteString(".c")
		b.WriteString(string(rune('a' + i%26)))
		b.WriteString(" td.alt1 { color: #334455; padding: 4px; border: 1px solid gray }\n")
	}
	b.WriteString(`</style></head><body>`)
	for i := 0; i < 100; i++ {
		b.WriteString(`<table class="ca"><tr><td class="alt1">x</td><td class="alt2">y</td></tr></table>`)
	}
	b.WriteString("</body></html>")
	return b.String()
}

// benchSheet is BenchmarkParseStylesheet's input: 200 rules of a
// three-compound selector and a box shorthand.
var benchSheet = strings.Repeat(".a .b > .c { margin: 1px 2px 3px; color: red !important }\n", 200)

func BenchmarkParseStylesheet(b *testing.B) {
	b.SetBytes(int64(len(benchSheet)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(ParseStylesheet(benchSheet).Rules) == 0 {
			b.Fatal("no rules")
		}
	}
}

func BenchmarkSelectorMatch(b *testing.B) {
	doc := html.Parse(benchDoc())
	sel := MustSelector("table.ca td.alt1")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(sel.QueryAll(doc)) != 100 {
			b.Fatal("match count wrong")
		}
	}
}

// BenchmarkComputedStyleFullDocument styles every cell of a document
// with a Styler of its own each pass, as every layout does: one reused
// across passes would time only its memo's hits.
func BenchmarkComputedStyleFullDocument(b *testing.B) {
	doc := html.Parse(benchDoc())
	var sheets Sheets
	body := doc.Body()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		styler := StylerForDocument(doc, &sheets)
		bodyStyle := styler.ComputedStyle(body, nil)
		count := 0
		for _, el := range body.Elements("td") {
			_ = styler.ComputedStyle(el, bodyStyle)
			count++
		}
		if count == 0 {
			b.Fatal("no elements")
		}
	}
}
