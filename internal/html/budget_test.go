package html

import (
	"net/http"
	"net/http/httptest"
	"testing"

	"msite/internal/dom"
	"msite/internal/origin"
)

// TestParseAllocationBudget parses the synthetic forum's entry page and
// holds what a node of its tree costs to a budget. While Parse allocated
// every node, and the tokenizer every start tag's attribute list, on its
// own, the page's 1 214 nodes cost 1 798 allocations, 1.48 a node; with
// both cut from slabs (dom.Slab) what is left is the slabs' chunks, the
// document node and the text that entities are decoded into.
func TestParseAllocationBudget(t *testing.T) {
	const maxPerNode = 0.1
	rec := httptest.NewRecorder()
	origin.NewForum(origin.DefaultForumConfig()).Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET / = %d", rec.Code)
	}
	page := rec.Body.String()
	nodes := 0
	Parse(page).Walk(func(*dom.Node) bool { nodes++; return true })
	allocs := testing.AllocsPerRun(20, func() { Parse(page) })
	perNode := allocs / float64(nodes)
	t.Logf("| forum entry page, %d KB | nodes | allocations | a node | budget a node |", len(page)/1024)
	t.Logf("|---|---|---|---|---|")
	t.Logf("| before: a node and an attribute list at a time | 1214 | 1798 | 1.48 | |")
	t.Logf("| now: nodes and attributes from slabs | %d | %.0f | %.2f | %.2f |", nodes, allocs, perNode, maxPerNode)
	if perNode > maxPerNode {
		t.Errorf("parsing the forum entry page allocated %.2f objects a node; budget %.2f", perNode, maxPerNode)
	}
}
