package layout

import (
	"reflect"
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
// walked in place it is ~23. The tables cascade alike, so the second 30
// must add no style.
func TestLayoutAllocationBudget(t *testing.T) {
	const maxPerTable = 30
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
	t.Logf("| a table | %.1f (was 94.1; budget %d) | |", perTable, maxPerTable)
	if many.styles > few.styles {
		t.Errorf("60 identical tables laid out with %d distinct styles, 30 with %d", many.styles, few.styles)
	}
	if perTable > maxPerTable {
		t.Errorf("a table allocated %.1f objects; budget %d", perTable, maxPerTable)
	}
}
