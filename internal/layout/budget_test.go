package layout

import (
	"reflect"
	"runtime"
	"strings"
	"testing"

	"msite/internal/css"
	"msite/internal/html"
)

// TestLayoutAllocationBudget lays out the forum-like page with 30 and with
// 60 identical tables, a Styler of its own each time as every caller
// does, and holds what a table costs to a budget. While every element
// cascaded into a style of its own, every box was a new object and a
// table's rows and cells were collected into throwaway slices, a table
// cost 94 allocations; with styles shared, boxes cut from a slab and rows
// walked in place it was 23.2. Since each box's text runs are a window of
// one run slab rather than a slice regrown a line at a time, it was
// 11.2; since each box's children are a window of one children slab,
// collected on a stack as they are laid out rather than appended to the
// box one at a time, it is about 2.2. The tables cascade alike, so the
// second 30 must add no style.
func TestLayoutAllocationBudget(t *testing.T) {
	const maxPerTable = 4
	type measure struct{ allocs, styles int }
	measureAt := func(tables int) measure {
		doc := html.Parse(forumish(tables))
		var sheets css.Sheets
		layoutOnce := func() *Result {
			return Layout(doc, css.StylerForDocument(doc, &sheets), Viewport{Width: 1024})
		}
		styles := make(map[uintptr]bool)
		var walk func(b *Box)
		walk = func(b *Box) {
			styles[reflect.ValueOf(b.Style).Pointer()] = true
			for _, c := range b.Children {
				walk(c)
			}
		}
		walk(layoutOnce().Root)
		return measure{int(testing.AllocsPerRun(20, func() { layoutOnce() })), len(styles)}
	}
	few, many := measureAt(30), measureAt(60)
	perTable := float64(many.allocs-few.allocs) / 30
	t.Logf("| forum-like page | allocations | distinct styles |")
	t.Logf("|---|---|---|")
	t.Logf("| 30 tables | %d | %d |", few.allocs, few.styles)
	t.Logf("| 60 tables | %d | %d |", many.allocs, many.styles)
	t.Logf("| a table | %.1f (was 94.1, then 23.2, then 11.2; budget %d) | |", perTable, maxPerTable)
	if many.styles > few.styles {
		t.Errorf("60 identical tables laid out with %d distinct styles, 30 with %d", many.styles, few.styles)
	}
	if perTable > maxPerTable {
		t.Errorf("a table allocated %.1f objects; budget %d", perTable, maxPerTable)
	}
}

// TestLayoutBytesGrowLinearly lays out pages at n and at 2n and holds
// the bytes a layout takes to about twice as many. Two grow one box's
// text runs a line at a time: a block of n words in one paragraph, and a
// block whose n lines of text alternate with n nested blocks. A run
// window moved whole each time it outgrew its chunk, or each time a
// nested block's runs were cut after it, copied n²/2 runs: four times the
// bytes at 2n. With room for noise these may take three times as many.
// Two grow the children stack: n sibling blocks in one parent, and n
// nested divs. The stack must copy each box's window of children into the
// slab once, so these may take at most 2.3 times as many.
func TestLayoutBytesGrowLinearly(t *testing.T) {
	const n = 2000
	pages := []struct {
		name  string
		page  func(n int) string
		ratio float64
	}{
		{"words in one block", func(n int) string {
			return "<html><body><div>" + strings.Repeat("word ", n) + "</div></body></html>"
		}, 3},
		{"text alternating with blocks", func(n int) string {
			return "<html><body><div>" + strings.Repeat("w <p>x</p>", n) + "</div></body></html>"
		}, 3},
		{"sibling blocks in one parent", func(n int) string {
			return "<html><body><div>" + strings.Repeat("<p>x</p>", n) + "</div></body></html>"
		}, 2.3},
		{"nested divs", func(n int) string {
			return "<html><body>" + strings.Repeat("<div>x", n) + strings.Repeat("</div>", n) + "</body></html>"
		}, 2.3},
	}
	t.Logf("| page | KB at %d | KB at %d | ratio | budget |", n, 2*n)
	t.Logf("|---|---|---|---|---|")
	for _, pg := range pages {
		kb := func(n int) float64 {
			doc := html.Parse(pg.page(n))
			return layoutBytes(func() { Layout(doc, nil, Viewport{Width: 320}) }) / 1024
		}
		one, two := kb(n), kb(2*n)
		t.Logf("| %s | %.0f | %.0f | %.2f | %.1f |", pg.name, one, two, two/one, pg.ratio)
		if two > pg.ratio*one {
			t.Errorf("%s: laying out %d took %.0f KB, %d took %.0f KB; want at most %.1f times", pg.name, n, one, 2*n, two, pg.ratio)
		}
	}
}

// layoutBytes returns the bytes one call of f allocates, over 5 calls.
func layoutBytes(f func()) float64 {
	const runs = 5
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / runs
}
