package quality

import (
	"strings"
	"testing"

	"msite/internal/dom"
	"msite/internal/html"
)

// brokenPage violates every built-in rule: no viewport meta, fixed
// widths beyond the mobile viewport (attr and inline style), tiny fonts
// (inline style and legacy <font>), and interactive elements with no
// touch-target sizing.
const brokenPage = `<!DOCTYPE html>
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

func TestEveryRuleFiresAndRelintsClean(t *testing.T) {
	doc := html.Tidy(brokenPage)
	rules := AllRules()

	before := CheckAll(rules, doc)
	if len(before) == 0 {
		t.Fatal("broken page lints clean before repair")
	}
	repairs := RepairAll(rules, doc)
	if len(repairs) != len(rules) {
		t.Errorf("repairs = %v; want one from each of the %d rules", repairs, len(rules))
	}
	for i, r := range repairs {
		if r.Rule != rules[i].Name() || r.N == 0 {
			t.Errorf("repair %d = %+v; want rule %s with fixes, in the rules' order", i, r, rules[i].Name())
		}
	}
	if after := CheckAll(rules, doc); len(after) != 0 {
		t.Fatalf("page does not re-lint clean after repair: %v", after)
	}
	// Second application is idempotent.
	if again := RepairAll(rules, doc); len(again) != 0 {
		t.Fatalf("repair is not idempotent: %v", again)
	}
}

func TestViewportRuleSynthesizesHead(t *testing.T) {
	doc := html.Tidy(`<html><body><p>no head here at all</p></body></html>`)
	if doc.Head() != nil {
		// html.Tidy may synthesize a head itself; strip it to force the
		// rule down the synthesis path.
		doc.Head().Detach()
	}
	r := viewportRule{}
	if n := r.Apply(doc); n != 1 {
		t.Fatalf("Apply = %d, want 1", n)
	}
	m := findViewportMeta(doc)
	if m == nil || !strings.Contains(m.AttrOr("content", ""), "width=device-width") {
		t.Fatalf("viewport meta not injected: %s", html.Render(doc))
	}
	if len(r.Check(doc)) != 0 {
		t.Fatal("viewport rule still complains after synthesis")
	}
}

func TestViewportRuleFixesBadContent(t *testing.T) {
	doc := html.Tidy(`<html><head><meta name="viewport" content="width=1024"></head><body></body></html>`)
	r := viewportRule{}
	if len(r.Check(doc)) == 0 {
		t.Fatal("fixed-width viewport content not flagged")
	}
	if n := r.Apply(doc); n != 1 {
		t.Fatalf("Apply = %d, want 1", n)
	}
	if got := findViewportMeta(doc).AttrOr("content", ""); got != ViewportContent {
		t.Fatalf("content = %q", got)
	}
}

func TestFixedWidthLeavesFluidAndNarrowAlone(t *testing.T) {
	doc := html.Tidy(`<html><body>
		<table width="100%"><tr><td>fluid</td></tr></table>
		<img src="/logo.png" width="320" height="60">
		<div style="width: 50%">half</div>
	</body></html>`)
	r := fixedWidthRule{}
	if v := r.Check(doc); len(v) != 0 {
		t.Fatalf("false positives: %v", v)
	}
	if n := r.Apply(doc); n != 0 {
		t.Fatalf("Apply = %d, want 0", n)
	}
}

func TestFixedWidthRewritesImgStyleWidth(t *testing.T) {
	doc := html.Tidy(`<html><body><img src="/x.png" style="width: 900px"></body></html>`)
	r := fixedWidthRule{}
	if n := r.Apply(doc); n != 1 {
		t.Fatalf("Apply = %d, want 1", n)
	}
	if v := r.Check(doc); len(v) != 0 {
		t.Fatalf("img style width not neutralized: %v", v)
	}
}

func TestTouchTargetSkipsNonInteractiveDocs(t *testing.T) {
	doc := html.Tidy(`<html><body><p>plain prose, nothing to tap</p></body></html>`)
	r := touchTargetRule{}
	if v := r.Check(doc); len(v) != 0 {
		t.Fatalf("false positive: %v", v)
	}
	if n := r.Apply(doc); n != 0 {
		t.Fatalf("Apply = %d, want 0", n)
	}
}

func TestParseRules(t *testing.T) {
	all, err := ParseRules("all")
	if err != nil || len(all) != len(AllRules()) {
		t.Fatalf("ParseRules(all) = %d rules, err %v", len(all), err)
	}
	two, err := ParseRules("viewport, font-floor")
	if err != nil || len(two) != 2 {
		t.Fatalf("ParseRules subset = %d rules, err %v", len(two), err)
	}
	if _, err := ParseRules("viewport,bogus"); err == nil {
		t.Fatal("unknown rule name not rejected")
	}
}

func TestStyleHelpers(t *testing.T) {
	n := dom.NewElement("div")
	n.SetAttr("style", "color: red; width: 700px")
	if got := styleProp(n, "width"); got != "700px" {
		t.Fatalf("styleProp = %q", got)
	}
	setStyleProp(n, "width", "100%")
	setStyleProp(n, "max-width", "700px")
	if got := n.AttrOr("style", ""); got != "color: red; width: 100%; max-width: 700px" {
		t.Fatalf("style = %q", got)
	}
	if _, ok := pxValue("50%"); ok {
		t.Fatal("pxValue accepted a percentage")
	}
	if v, ok := pxValue(" 728px "); !ok || v != 728 {
		t.Fatalf("pxValue(728px) = %v, %v", v, ok)
	}
}
