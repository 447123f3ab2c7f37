package attr_test

import (
	"strings"
	"testing"

	"msite/internal/attr"
	"msite/internal/html"
	"msite/internal/spec"
)

// repairPage fails every quality rule: no viewport meta, fixed desktop
// widths, tiny fonts and small touch targets.
const repairPage = `<!DOCTYPE html>
<html><head><title>Desktop-only page</title></head><body>
<table width="1200"><tr><td>
<img src="/hero.png" width="900" height="300">
<div style="width: 700px; color: #333">A column that assumes a desktop monitor width.</div>
<span style="font-size: 9px">tiny legal boilerplate nobody can read</span>
<font size="1">ancient markup footnote</font>
<a href="/a">first link</a> <a href="/b">second link</a>
<form action="/go"><input type="text" name="q"><input type="submit" value="Go"></form>
</td></tr></table>
</body></html>`

// TestRepairAttrThroughApplier drives the spec "repair" attribute end
// to end through the attr policy engine.
func TestRepairAttrThroughApplier(t *testing.T) {
	sp := &spec.Spec{Name: "q", Origin: "http://o/", Objects: []spec.Object{
		{Name: "page", Selector: "body", Attributes: []spec.Attribute{
			{Type: spec.AttrRepair, Params: map[string]string{"rules": "viewport,fixed-width"}},
		}},
	}}
	if err := sp.Validate(); err != nil {
		t.Fatalf("repair attr rejected by spec validation: %v", err)
	}
	doc := html.Tidy(repairPage)
	a := &attr.Applier{ViewportWidth: 800}
	res, err := a.Apply(sp, doc)
	if err != nil {
		t.Fatal(err)
	}
	out := html.Render(res.Doc)
	if !strings.Contains(out, "width=device-width") {
		t.Fatalf("viewport rule did not run through the attr pass: %s", out)
	}
	if strings.Contains(out, `width="1200"`) {
		t.Fatal("fixed-width rule did not run through the attr pass")
	}
	// font-floor was not selected, so the tiny font survives.
	if !strings.Contains(out, "font-size: 9px") {
		t.Fatal("unselected rule ran anyway")
	}
	found := false
	for _, n := range res.Notes {
		if strings.Contains(n, "repair rule") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no repair notes recorded: %v", res.Notes)
	}
}

// TestRepairAttrNotesInRuleOrder: the same page repaired 20 times with
// every rule notes its repairs in one order, the rules' own.
func TestRepairAttrNotesInRuleOrder(t *testing.T) {
	sp := &spec.Spec{Name: "q", Origin: "http://o/", Objects: []spec.Object{
		{Name: "page", Selector: "body", Attributes: []spec.Attribute{
			{Type: spec.AttrRepair, Params: map[string]string{"rules": "all"}},
		}},
	}}
	orders := map[string]bool{}
	for i := 0; i < 20; i++ {
		a := &attr.Applier{ViewportWidth: 800}
		res, err := a.Apply(sp, html.Tidy(repairPage))
		if err != nil {
			t.Fatal(err)
		}
		orders[strings.Join(res.Notes, "\n")] = true
	}
	if len(orders) != 1 {
		t.Fatalf("20 repairs of one page gave %d note orders", len(orders))
	}
	for notes := range orders {
		if strings.Count(notes, "repair rule") < 2 {
			t.Fatalf("want several rules' notes to order, got %q", notes)
		}
	}
}

func TestRepairAttrUnknownRuleFails(t *testing.T) {
	sp := &spec.Spec{Name: "q", Origin: "http://o/", Objects: []spec.Object{
		{Name: "page", Selector: "body", Attributes: []spec.Attribute{
			{Type: spec.AttrRepair, Params: map[string]string{"rules": "bogus"}},
		}},
	}}
	a := &attr.Applier{ViewportWidth: 800}
	if _, err := a.Apply(sp, html.Tidy(repairPage)); err == nil {
		t.Fatal("unknown repair rule accepted")
	}
}
