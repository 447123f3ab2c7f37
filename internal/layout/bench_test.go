package layout

import (
	"strings"
	"testing"

	"msite/internal/css"
	"msite/internal/html"
)

// forumish is a forum-like page: a style element and the given number of
// identical forum-row tables.
func forumish(tables int) string {
	var b strings.Builder
	b.WriteString(`<html><head><style>
.tborder { border: 1px solid #888; background-color: #eef }
.smallfont { font-size: 11px }
</style></head><body>`)
	for i := 0; i < tables; i++ {
		b.WriteString(`<table class="tborder" width="100%"><tr>
<td><img src="i.gif" width="24" height="24"></td>
<td><a href="/f"><b>Forum name here</b></a><div class="smallfont">Description of the forum with a full sentence of text to wrap.</div></td>
<td><div class="smallfont">Today 09:14 AM by someone</div></td>
</tr></table>`)
	}
	b.WriteString("</body></html>")
	return b.String()
}

// BenchmarkLayoutForumPage lays out a forum-like page with a Styler of its
// own each pass, as every caller does; the sheets parse once, through a
// memo.
func BenchmarkLayoutForumPage(b *testing.B) {
	doc := html.Parse(forumish(30))
	var sheets css.Sheets
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := Layout(doc, css.StylerForDocument(doc, &sheets), Viewport{Width: 1024})
		if res.Height <= 0 {
			b.Fatal("no height")
		}
	}
}

// BenchmarkLayoutNarrowReflow is BenchmarkLayoutForumPage at a phone's
// width.
func BenchmarkLayoutNarrowReflow(b *testing.B) {
	doc := html.Parse(forumish(30))
	var sheets css.Sheets
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := Layout(doc, css.StylerForDocument(doc, &sheets), Viewport{Width: 320})
		if res.Height <= 0 {
			b.Fatal("no height")
		}
	}
}

func BenchmarkTextWidth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if TextWidth("General Woodworking discussion", 13) <= 0 {
			b.Fatal("zero width")
		}
	}
}
