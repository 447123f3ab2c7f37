package layout

import (
	"slices"
	"testing"

	"msite/internal/css"
	"msite/internal/dom"
	"msite/internal/html"
)

func doLayout(t *testing.T, src string, width int) *Result {
	t.Helper()
	doc := html.Parse(src)
	styler := css.StylerForDocument(doc)
	return Layout(doc, styler, Viewport{Width: width})
}

func TestMetrics(t *testing.T) {
	if got := TextWidth("abcd", 10); got != 4*6*1.0 {
		t.Fatalf("TextWidth = %v", got)
	}
	if CharWidth(20) != 12 {
		t.Fatalf("CharWidth(20) = %v", CharWidth(20))
	}
	if LineHeight(16) != 20 {
		t.Fatalf("LineHeight = %v", LineHeight(16))
	}
	if GlyphScale(0) != 1.6 {
		t.Fatalf("GlyphScale fallback = %v", GlyphScale(0))
	}
	// Unicode counts runes, not bytes.
	if TextWidth("héllo", 10) != TextWidth("hello", 10) {
		t.Fatal("rune counting wrong")
	}
}

func TestBlockStacking(t *testing.T) {
	res := doLayout(t, `<html><body><div id="a" style="height: 50px"></div><div id="b" style="height: 30px"></div></body></html>`, 800)
	ax, ay, aw, ah, ok := regionByID(t, res, "a")
	if !ok {
		t.Fatal("no box for a")
	}
	if ax != 0 || ay != 0 || aw != 800 || ah != 50 {
		t.Fatalf("a = %d,%d %dx%d", ax, ay, aw, ah)
	}
	_, by, _, bh, _ := regionByID(t, res, "b")
	if by != 50 || bh != 30 {
		t.Fatalf("b: y=%d h=%d", by, bh)
	}
	if res.Height != 80 {
		t.Fatalf("doc height = %d", res.Height)
	}
}

func TestMarginPaddingBorder(t *testing.T) {
	res := doLayout(t, `<html><body>
		<div id="x" style="margin: 10px; padding: 5px; border: 2px solid black; height: 20px"></div>
	</body></html>`, 400)
	x, y, w, h, ok := regionByID(t, res, "x")
	if !ok {
		t.Fatal("no box")
	}
	if x != 10 || y != 10 {
		t.Fatalf("origin = %d,%d", x, y)
	}
	// width = 400 - 2*margin; border-box includes border+padding
	if w != 380 {
		t.Fatalf("w = %d", w)
	}
	if h != 20+2*5+2*2 {
		t.Fatalf("h = %d", h)
	}
}

func TestExplicitWidth(t *testing.T) {
	res := doLayout(t, `<html><body><div id="x" style="width: 200px; height: 10px"></div></body></html>`, 800)
	_, _, w, _, _ := regionByID(t, res, "x")
	if w != 200 {
		t.Fatalf("w = %d", w)
	}
}

func TestPercentWidth(t *testing.T) {
	res := doLayout(t, `<html><body><div id="x" style="width: 50%; height: 10px"></div></body></html>`, 800)
	_, _, w, _, _ := regionByID(t, res, "x")
	if w != 400 {
		t.Fatalf("w = %d", w)
	}
}

func TestTextWrapping(t *testing.T) {
	// 20 words of 4 chars at 16px: each word 4*6*1.6=38.4px, space 9.6px.
	// In a 200px container about 4 words fit per line → 5 lines.
	src := `<html><body><p id="p">` +
		"word word word word word word word word word word " +
		"word word word word word word word word word word" +
		`</p></body></html>`
	res := doLayout(t, src, 200)
	runs := slices.Collect(res.Runs())
	if len(runs) != 20 {
		t.Fatalf("runs = %d", len(runs))
	}
	lines := map[float64]bool{}
	for _, r := range runs {
		lines[r.Y] = true
		if r.X < 0 || r.X+r.Width() > 210 {
			t.Fatalf("run outside container: %+v", r)
		}
	}
	if len(lines) < 4 {
		t.Fatalf("lines = %d, want wrapping", len(lines))
	}
}

func TestDisplayNoneSkipped(t *testing.T) {
	res := doLayout(t, `<html><body>
		<div id="gone" style="display: none"><p>hidden text</p></div>
		<script>var x = "script text";</script>
		<div id="shown">visible</div>
	</body></html>`, 800)
	if res.BoxFor(nil) != nil {
		t.Fatal("nil lookup should be nil")
	}
	if _, _, _, _, ok := regionByID(t, res, "gone"); ok {
		t.Fatal("display:none produced a box")
	}
	for r := range res.Runs() {
		if r.Text == "hidden" || r.Text == "script" {
			t.Fatalf("hidden content rendered: %+v", r)
		}
	}
}

func TestInlineElementBounds(t *testing.T) {
	res := doLayout(t, `<html><body><p>Click <a id="lnk" href="/x">here now</a> please</p></body></html>`, 800)
	x, y, w, h, ok := regionByID(t, res, "lnk")
	if !ok {
		t.Fatal("no box for inline link")
	}
	if w <= 0 || h <= 0 {
		t.Fatalf("link bounds %d,%d %dx%d", x, y, w, h)
	}
	// "here now" is 8 chars + space at 16px
	wantW := int(TextWidth("here", 16) + CharWidth(16) + TextWidth("now", 16))
	if w < wantW-2 || w > wantW+2 {
		t.Fatalf("link w = %d, want ≈%d", w, wantW)
	}
}

func TestImageAtom(t *testing.T) {
	res := doLayout(t, `<html><body><img id="logo" src="l.png" width="120" height="40"></body></html>`, 800)
	_, _, w, h, ok := regionByID(t, res, "logo")
	if !ok || w != 120 || h != 40 {
		t.Fatalf("img = %dx%d ok=%v", w, h, ok)
	}
}

func TestImageDefaultSize(t *testing.T) {
	res := doLayout(t, `<html><body><img id="i" src="x.png"></body></html>`, 800)
	_, _, w, h, _ := regionByID(t, res, "i")
	if w != 80 || h != 60 {
		t.Fatalf("default img = %dx%d", w, h)
	}
}

func TestFormControlAtoms(t *testing.T) {
	res := doLayout(t, `<html><body>
		<input id="t" type="text" size="10">
		<input id="c" type="checkbox">
		<input id="s" type="submit" value="Log in">
		<input id="h" type="hidden" value="x">
		<select id="sel"><option>a</option></select>
	</body></html>`, 800)
	if _, _, w, _, _ := regionByID(t, res, "t"); w <= 0 {
		t.Fatal("text input no width")
	}
	if _, _, w, h, _ := regionByID(t, res, "c"); w != 13 || h != 13 {
		t.Fatalf("checkbox = %dx%d", w, h)
	}
	if _, _, w, _, _ := regionByID(t, res, "s"); w <= 16 {
		t.Fatal("submit too narrow")
	}
	if _, _, _, _, ok := regionByID(t, res, "h"); ok {
		t.Fatal("hidden input should produce no box")
	}
	if _, _, w, _, _ := regionByID(t, res, "sel"); w != 110 {
		t.Fatal("select width wrong")
	}
}

func TestBrForcesLine(t *testing.T) {
	res := doLayout(t, `<html><body><p>one<br>two</p></body></html>`, 800)
	runs := slices.Collect(res.Runs())
	if len(runs) != 2 {
		t.Fatalf("runs = %d", len(runs))
	}
	if runs[0].Y == runs[1].Y {
		t.Fatal("br did not break line")
	}
}

func TestTableLayout(t *testing.T) {
	res := doLayout(t, `<html><body>
	<table id="tbl" width="600" cellspacing="0" cellpadding="0">
		<tr><td id="c1">a</td><td id="c2">b</td><td id="c3">c</td></tr>
		<tr><td id="c4">longer content here</td><td>e</td><td>f</td></tr>
	</table></body></html>`, 800)
	_, _, w, _, ok := regionByID(t, res, "tbl")
	if !ok || w != 600 {
		t.Fatalf("table w = %d", w)
	}
	x1, y1, w1, _, _ := regionByID(t, res, "c1")
	x2, y2, _, _, _ := regionByID(t, res, "c2")
	x3, _, _, _, _ := regionByID(t, res, "c3")
	if y1 != y2 {
		t.Fatal("cells not on same row")
	}
	if !(x1 < x2 && x2 < x3) {
		t.Fatalf("cells not left-to-right: %d %d %d", x1, x2, x3)
	}
	if w1 != 200 {
		t.Fatalf("equal column width = %d, want 200", w1)
	}
	_, y4, _, _, _ := regionByID(t, res, "c4")
	if y4 <= y1 {
		t.Fatal("second row not below first")
	}
}

func TestTableColspan(t *testing.T) {
	res := doLayout(t, `<html><body>
	<table width="400" cellspacing="0" cellpadding="0">
		<tr><td id="span2" colspan="2">ab</td><td id="solo">c</td></tr>
	</table></body></html>`, 800)
	_, _, w, _, _ := regionByID(t, res, "span2")
	if w < 260 || w > 270 {
		t.Fatalf("colspan width = %d, want ≈266", w)
	}
}

// TestCellpaddingFillsUnsetSides: a table's cellpadding pads exactly the
// sides its cell's style leaves unset — a cell that sets one side keeps
// it and takes cellpadding on the other three.
func TestCellpaddingFillsUnsetSides(t *testing.T) {
	for _, c := range []struct {
		name, style              string
		top, right, bottom, left int
	}{
		{"no padding", "", 6, 6, 6, 6},
		{"padding-left only", "padding-left: 9px", 6, 6, 6, 9},
		{"padding-top only", "padding-top: 2px", 2, 6, 6, 6},
		{"all four", "padding: 1px 2px 3px 4px", 1, 2, 3, 4},
	} {
		res := doLayout(t, `<html><body><table cellspacing="0" cellpadding="6" width="200"><tr>
			<td id="cell" style="`+c.style+`"><div id="in" style="height: 10px"></div></td>
		</tr></table></body></html>`, 800)
		cx, cy, cw, ch, ok1 := regionByID(t, res, "cell")
		ix, iy, iw, ih, ok2 := regionByID(t, res, "in")
		if !ok1 || !ok2 {
			t.Fatalf("%s: no box for the cell or its content", c.name)
		}
		top, left := iy-cy, ix-cx
		right, bottom := cw-iw-left, ch-ih-top
		if top != c.top || right != c.right || bottom != c.bottom || left != c.left {
			t.Errorf("%s: padding %d %d %d %d, want %d %d %d %d", c.name,
				top, right, bottom, left, c.top, c.right, c.bottom, c.left)
		}
	}
}

func TestTableRowGroups(t *testing.T) {
	res := doLayout(t, `<html><body>
	<table><thead><tr><th id="h">H</th></tr></thead>
	<tbody><tr><td id="d">D</td></tr></tbody></table></body></html>`, 400)
	_, hy, _, _, ok1 := regionByID(t, res, "h")
	_, dy, _, _, ok2 := regionByID(t, res, "d")
	if !ok1 || !ok2 || dy <= hy {
		t.Fatal("thead/tbody rows wrong")
	}
}

func TestTextAlignCenter(t *testing.T) {
	res := doLayout(t, `<html><body><p style="text-align: center">mid</p></body></html>`, 800)
	runs := slices.Collect(res.Runs())
	if len(runs) != 1 {
		t.Fatalf("runs = %d", len(runs))
	}
	center := runs[0].X + runs[0].Width()/2
	if center < 390 || center > 410 {
		t.Fatalf("center = %v", center)
	}
}

func TestListIndent(t *testing.T) {
	res := doLayout(t, `<html><body><ul><li id="li">item</li></ul></body></html>`, 800)
	x, _, _, _, _ := regionByID(t, res, "li")
	if x < 40 {
		t.Fatalf("li x = %d, want indent ≥40", x)
	}
}

func TestStyledFontAffectsRuns(t *testing.T) {
	res := doLayout(t, `<html><head><style>
		.big { font-size: 32px; color: red }
		b { }
	</style></head><body><p><span class="big">L</span> <b>B</b> n</p></body></html>`, 800)
	runs := slices.Collect(res.Runs())
	if len(runs) != 3 {
		t.Fatalf("runs = %d", len(runs))
	}
	if runs[0].FontSize != 32 {
		t.Fatalf("font size = %v", runs[0].FontSize)
	}
	if runs[0].Color.R != 255 || runs[0].Color.G != 0 {
		t.Fatalf("color = %v", runs[0].Color)
	}
	if !runs[1].Bold {
		t.Fatal("b should be bold")
	}
	if runs[2].Bold {
		t.Fatal("plain text should not be bold")
	}
}

func TestHeadingsLargerThanBody(t *testing.T) {
	res := doLayout(t, `<html><body><h1>Big</h1><p>small</p></body></html>`, 800)
	runs := slices.Collect(res.Runs())
	if len(runs) != 2 {
		t.Fatalf("runs = %d", len(runs))
	}
	if runs[0].FontSize <= runs[1].FontSize {
		t.Fatal("h1 not larger than p")
	}
}

func TestEmptyDocument(t *testing.T) {
	res := doLayout(t, ``, 800)
	if res == nil || res.Width != 800 {
		t.Fatal("empty doc should still lay out")
	}
}

func TestZeroViewportUsesDefault(t *testing.T) {
	doc := html.Parse(`<html><body><p>x</p></body></html>`)
	res := Layout(doc, nil, Viewport{})
	if res.Width != DefaultViewport.Width {
		t.Fatalf("width = %d", res.Width)
	}
}

func TestCountBoxesAndRuns(t *testing.T) {
	res := doLayout(t, `<html><body><div><p>a b c</p><p>d</p></div></body></html>`, 800)
	if res.CountBoxes() < 4 {
		t.Fatalf("boxes = %d", res.CountBoxes())
	}
	if runs := slices.Collect(res.Runs()); len(runs) != 4 {
		t.Fatalf("runs = %d", len(runs))
	}
}

func TestNestedTablesDoNotPanic(t *testing.T) {
	res := doLayout(t, `<html><body>
	<table><tr><td><table><tr><td id="inner">deep</td></tr></table></td></tr></table>
	</body></html>`, 600)
	if _, _, _, _, ok := regionByID(t, res, "inner"); !ok {
		t.Fatal("inner cell missing")
	}
}

func regionByID(t *testing.T, res *Result, id string) (x, y, w, h int, ok bool) {
	t.Helper()
	var node = res.Root.Node.Root().ElementByID(id)
	if node == nil {
		return 0, 0, 0, 0, false
	}
	return res.Region(node)
}

func TestLinkUnderline(t *testing.T) {
	res := doLayout(t, `<html><body>
		<p><a href="/x">linked</a> plain <a href="/y" style="text-decoration: none">bare</a>
		<span style="text-decoration: underline">deco</span></p>
	</body></html>`, 800)
	byText := map[string]TextRun{}
	for r := range res.Runs() {
		byText[r.Text] = r
	}
	if !byText["linked"].Underline {
		t.Fatal("anchor text should underline")
	}
	if byText["plain"].Underline {
		t.Fatal("plain text should not underline")
	}
	if byText["bare"].Underline {
		t.Fatal("text-decoration: none should suppress underline")
	}
	if !byText["deco"].Underline {
		t.Fatal("explicit underline ignored")
	}
}

// TestCellSpan pins the columns a cell's colspan gives it, and that a
// cell without the attribute — most cells — costs no allocation.
func TestCellSpan(t *testing.T) {
	cases := []struct {
		name    string
		colspan *string
		want    int
	}{
		{"absent", nil, 1},
		{`""`, ptr(""), 1},
		{`"0"`, ptr("0"), 1},
		{`"1"`, ptr("1"), 1},
		{`"3"`, ptr("3"), 3},
		{`" 2"`, ptr(" 2"), 1},
		{`"x"`, ptr("x"), 1},
	}
	for _, c := range cases {
		cell := dom.NewElement("td")
		if c.colspan != nil {
			cell.SetAttr("colspan", *c.colspan)
		}
		if got := cellSpan(cell); got != c.want {
			t.Errorf("colspan %s: span %d, want %d", c.name, got, c.want)
		}
		if c.colspan == nil {
			if allocs := testing.AllocsPerRun(100, func() { cellSpan(cell) }); allocs != 0 {
				t.Errorf("colspan absent: %.0f allocations, want 0", allocs)
			}
		}
	}
}

func ptr(s string) *string { return &s }

// TestRunWindowsAreExact: each box's Runs is a window of the layout's run
// slab, cut with len == cap, so that appending to one copies it out
// instead of writing over the next box's, or are clipped so when they
// grew outside it. A block's lines interleave with nested blocks, so its
// runs leave the slab and must keep their words and order: paint order
// is a box's own runs, then its children's.
func TestRunWindowsAreExact(t *testing.T) {
	nested := doLayout(t, `<html><body><div>one two <p>three</p> four five <b>six</b><div>seven</div> eight</div></body></html>`, 300)
	var words []string
	for r := range nested.Runs() {
		words = append(words, r.Text)
	}
	if want := []string{"one", "two", "four", "five", "six", "eight", "three", "seven"}; !slices.Equal(words, want) {
		t.Errorf("runs in paint order %q, want %q", words, want)
	}

	var walk func(b *Box)
	walk = func(b *Box) {
		if len(b.Runs) != cap(b.Runs) {
			t.Errorf("box at (%.0f, %.0f) runs len %d cap %d", b.X, b.Y, len(b.Runs), cap(b.Runs))
		}
		for _, c := range b.Children {
			walk(c)
		}
	}
	walk(nested.Root)
	walk(doLayout(t, forumish(3), 300).Root)
}
