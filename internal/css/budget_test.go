package css

import (
	"runtime"
	"strings"
	"testing"
)

// TestParseAllocationBudget holds what parsing the synthetic forum's
// 30 KB stylesheet allocates, per rule, to a budget. While a parse split
// every block and selector list into a throwaway slice, built each
// longhand's name by concatenation and grew each selector's compounds a
// rule cost 24.9 allocations, two fifths of a cold build's; cutting in
// place, naming longhands from tables and keeping short selectors inline
// leaves the rule's own selector list, selectors, class lists and
// declarations: 5.0. Since those are cut from the parse's slabs
// (dom.Slab), whose chunks are sized from the sheet's source and rules, a
// rule costs 0.06, and a parse 333 KB where the objects one at a time
// took 339 KB: a parse may not take more than that. The rule hash, built
// with the rules (a map and a slice of rule ordinals), takes it to
// 0.08 a rule and 336 KB.
//
// The same sheet with a comment after every rule may allocate at most
// twice the bytes of the plain one. Bytes, not allocations: a stripper
// that rebuilt the rest of the sheet once per comment made 433 large
// copies, 49 times the plain parse's bytes.
func TestParseAllocationBudget(t *testing.T) {
	const maxPerRule, maxKB = 1, 339
	src := forumSheet(t, 42)
	rules := len(ParseStylesheet(src).Rules)
	allocs := testing.AllocsPerRun(20, func() { ParseStylesheet(src) })
	perRule := allocs / float64(rules)
	t.Logf("| stylesheet | rules | allocations | a rule | was | budget a rule |")
	t.Logf("|---|---|---|---|---|---|")
	t.Logf("| vbulletin.css | %d | %.0f | %.1f | 24.9, then 5.0 | %d |", rules, allocs, perRule, maxPerRule)
	if perRule > maxPerRule {
		t.Errorf("parsing vbulletin.css allocated %.1f objects a rule; budget %d", perRule, maxPerRule)
	}

	commented := strings.ReplaceAll(src, "}", "} /* skin note */")
	plainKB := bytesPerRun(10, func() { ParseStylesheet(src) }) / 1024
	commentedKB := bytesPerRun(10, func() { ParseStylesheet(commented) }) / 1024
	t.Logf("| stylesheet | KB a parse | budget KB |")
	t.Logf("|---|---|---|")
	t.Logf("| vbulletin.css | %.0f | %d |", plainKB, maxKB)
	t.Logf("| vbulletin.css, a comment after each rule | %.0f | %.0f |", commentedKB, 2*plainKB)
	if plainKB > maxKB {
		t.Errorf("parsing vbulletin.css allocated %.0f KB; budget %d KB", plainKB, maxKB)
	}
	if commentedKB > 2*plainKB {
		t.Errorf("parsing the commented vbulletin.css allocated %.0f KB; budget %.0f, twice the plain sheet's", commentedKB, 2*plainKB)
	}
}

// bytesPerRun is testing.AllocsPerRun for bytes: what f allocates a
// call, averaged over runs after one warm-up call.
func bytesPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}
