package css_test

import (
	"fmt"

	"msite/internal/css"
	"msite/internal/html"
)

// Selectors are how the attribute system identifies page objects.
func ExampleParseSelector() {
	doc := html.Parse(`<table class="tborder">
		<tr><td class="alt1">a</td><td class="alt2">b</td></tr>
		<tr><td class="alt1">c</td></tr>
	</table>`)
	sel, err := css.ParseSelector("table.tborder td.alt1")
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("matches:", len(sel.QueryAll(doc)))
	fmt.Println("specificity:", sel.Specificity())
	// Output:
	// matches: 2
	// specificity: 2002
}

// Select finds a page object by a selector list, the way a spec names
// it: each matching element once, in document order.
func ExampleSelect() {
	doc := html.Parse(`<ul class="nav">
		<li><a href="/home">Home</a></li>
		<li class="on"><a href="/forum">Forum</a></li>
	</ul>`)
	links, err := css.Select(doc, "li.on a, ul.nav a")
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	for _, a := range links {
		fmt.Println(a.AttrOr("href", ""))
	}
	// Output:
	// /home
	// /forum
}

func ExampleStylerForDocument() {
	doc := html.Parse(`<html><head><style>
		p { color: navy; font-size: 14px }
	</style></head><body><p>text</p></body></html>`)
	styler := css.StylerForDocument(doc)
	style := styler.ComputedStyle(doc.Elements("p")[0], nil)
	fmt.Println(style.Get("color", "?"), style.Get("font-size", "?"))
	// Output:
	// navy 14px
}
