package css

import "testing"

// TestParseAllocationBudget holds what parsing the synthetic forum's
// 30 KB stylesheet allocates, per rule, to a budget. While a parse split
// every block and selector list into a throwaway slice, built each
// longhand's name by concatenation and grew each selector's compounds a
// rule cost 24.9 allocations, two fifths of a cold build's; cutting in
// place, naming longhands from tables and keeping short selectors inline
// leaves the rule's own selector list, selectors, class lists and
// declarations.
func TestParseAllocationBudget(t *testing.T) {
	const maxPerRule = 6
	src := forumSheet(t, 42)
	rules := len(ParseStylesheet(src).Rules)
	allocs := testing.AllocsPerRun(20, func() { ParseStylesheet(src) })
	perRule := allocs / float64(rules)
	t.Logf("| stylesheet | rules | allocations | a rule | was | budget a rule |")
	t.Logf("|---|---|---|---|---|---|")
	t.Logf("| vbulletin.css | %d | %.0f | %.1f | 24.9 | %d |", rules, allocs, perRule, maxPerRule)
	if perRule > maxPerRule {
		t.Fatalf("parsing vbulletin.css allocated %.1f objects a rule; budget %d", perRule, maxPerRule)
	}
}
