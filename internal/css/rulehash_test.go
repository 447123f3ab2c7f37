package css

import (
	"slices"
	"strings"
	"testing"

	"msite/internal/dom"
	"msite/internal/html"
	"msite/internal/origin"
)

// linearHits is appendHits as it was before the rule hash: every rule of
// every sheet of s, each of its selectors tried against n. It is the rule
// hash's oracle.
func linearHits(s *Styler, n *dom.Node) []ruleHit {
	var hits []ruleHit
	for si, sheet := range s.sheets {
		for ri := range sheet.Rules {
			rule := &sheet.Rules[ri]
			if !s.mediaActive(rule.Media) {
				continue
			}
			best := -1
			for _, sel := range rule.Selectors {
				if sel.Match(n) && sel.Specificity() > best {
					best = sel.Specificity()
				}
			}
			if best >= 0 {
				hits = append(hits, ruleHit{sheet: si, rule: ri, spec: best})
			}
		}
	}
	return hits
}

// linearOffer is what a sheet's rule hash must offer an element of the
// given id, classes and tag: every rule with a selector whose rightmost
// compound is keyed by one of them, or by none, once, in source order.
func linearOffer(sheet *Stylesheet, id string, classes []string, tag string) []int32 {
	var offer []int32
	for ri, rule := range sheet.Rules {
		for _, sel := range rule.Selectors {
			c := &sel.parts[0]
			var keyed bool
			switch {
			case c.id != "":
				keyed = c.id == id
			case len(c.classes) > 0:
				keyed = slices.Contains(classes, c.classes[0])
			case c.tag != "" && c.tag != "*":
				keyed = c.tag == tag
			default:
				keyed = true
			}
			if keyed {
				offer = append(offer, int32(ri))
				break
			}
		}
	}
	return offer
}

// checkRuleHash fails unless every sheet's rule hash offers each element
// of doc exactly the rules linearOffer names, and appendHits finds for it
// the hits the linear scan finds, on screen and in print.
func checkRuleHash(t *testing.T, doc *dom.Node, sheets ...*Stylesheet) {
	t.Helper()
	for _, media := range [][]string{{"screen", "all"}, {"print"}} {
		s := NewStyler(sheets...)
		s.SetMedia(media...)
		doc.Walk(func(n *dom.Node) bool {
			if n.Type != dom.ElementNode {
				return true
			}
			id, _ := n.Attr("id")
			classes := n.Classes()
			for i, sheet := range sheets {
				got := slices.Compact(sheet.index.offer(nil, id, classes, n.Tag))
				if want := linearOffer(sheet, id, classes, n.Tag); !slices.Equal(got, want) {
					t.Fatalf("<%s %v> is offered rules %v of sheet %d, want %v", n.Tag, n.Attrs, got, i, want)
				}
			}
			got, want := s.appendHits(nil, n), linearHits(s, n)
			if !slices.Equal(got, want) {
				t.Fatalf("media %v: <%s %v> hits %v through the rule hash, %v by a linear scan", media, n.Tag, n.Attrs, got, want)
			}
			return true
		})
	}
}

// ruleHashSeeds cover each key a rightmost compound is filed under (id,
// first class, tag, universal), attribute-only and pseudo-only compounds
// and :not(), uppercase tags and classes, @media rules, rules with
// selectors under several keys or twice under one, elements that carry
// several keys at once (or a class twice), and a second sheet.
var ruleHashSeeds = []struct{ page, a, b string }{
	{
		`<div id="main" class="x y"><p class="x">a</p><p id="P2" class="y x">b<span class="x x">c</span></p></div>`,
		`#main { a: 1 } .x { b: 2 } p { c: 3 } * { d: 4 } div#main > p.x { e: 5 } .y.x { f: 6 } #P2 { g: 7 }`,
		`span, .y, #main { h: 8 } p.x, p { i: 9 }`,
	},
	{
		`<ul><li>a<li class="b">b<li><a href="/x" title="t">c</a></ul><input type="text" disabled>`,
		`[href] { a: 1 } [title=t] { b: 2 } :first-child { c: 3 } li:nth-child(2n+1) { d: 4 } :not(.b) { e: 5 } *:not(li) { f: 6 } a[href^="/"] { g: 7 } :disabled { h: 8 } input[type~=text] { i: 9 }`,
		`:not(#x) > a { j: 1 } li + li { k: 2 } li ~ li.b { l: 3 }`,
	},
	{
		`<DIV CLASS="A a"><P ID="Q" class="B">x</P><p class="b">y</p></DIV>`,
		`DIV { a: 1 } Div.A { b: 2 } P#Q { c: 3 } div.a p { d: 4 } #q { e: 5 } .B { f: 6 }`,
		`.b, div .b { g: 7 } p, div > p { h: 8 } *, :first-child { i: 9 }`,
	},
	{
		`<body><p class="m">x</p><b>y</b></body>`,
		`@media screen { .m { a: 1 } b { b: 2 } } @media print { .m { c: 3 } * { d: 4 } } .m { e: 5 }`,
		`@media all { @media (min-width: 1px) { p { f: 6 } } } @media PRINT { b { g: 7 } }`,
	},
	{
		`<table class="vb-rule-3"><tr><td class="c3 alt1">a<td class="c4">b<td>c</table>`,
		`.vb-rule-3 td.c3 { a: 1 } .vb-rule-4 td.c4 { b: 2 } .vb-rule-3 td.c4 { c: 3 } td { d: 4 } .alt1 { e: 5 }`,
		`td.c3, td.c4 { f: 6 } tr > td:last-child { g: 7 }`,
	},
}

// FuzzRuleHash: for any document and two sheets, appendHits finds for
// every element exactly the rules a linear scan of every rule finds, in
// the same order and with the same specificity.
func FuzzRuleHash(f *testing.F) {
	for _, seed := range ruleHashSeeds {
		f.Add(seed.page, seed.a, seed.b)
	}
	f.Fuzz(func(t *testing.T, page, a, b string) {
		checkRuleHash(t, html.Parse(page), ParseStylesheet(a), ParseStylesheet(b))
	})
}

// TestRuleHashMatchesLinearScan runs the oracle over the synthetic
// forum's pages with its stylesheet and their own <style> sheets, a
// build's real input.
func TestRuleHashMatchesLinearScan(t *testing.T) {
	for _, seed := range []int64{42, 7} {
		cfg := origin.DefaultForumConfig()
		cfg.Seed = seed
		forum := origin.NewForum(cfg).Handler()
		sheets := []*Stylesheet{ParseStylesheet(forumSheet(t, seed))}
		for _, path := range []string{"/", "/forumdisplay.php?f=2", "/login.php"} {
			page := get(t, forum, path)
			own, _ := styleTexts(page)
			for _, src := range own {
				sheets = append(sheets, ParseStylesheet(src))
			}
			checkRuleHash(t, html.Parse(page), sheets...)
		}
	}
}

// TestRuleHashOffersOnlyKeyedRules holds the point of the rule hash on
// the forum's stylesheet: its `.vb-rule-N td.cK` rules are filed under
// class cK, so an element is offered exactly those of its own cK, and
// one without any cK none of them.
func TestRuleHashOffersOnlyKeyedRules(t *testing.T) {
	sheet := ParseStylesheet(forumSheet(t, 42))
	vbRule := func(ri int32) (class string, ok bool) {
		src := sheet.Rules[ri].Source
		if !strings.HasPrefix(src, ".vb-rule-") {
			return "", false
		}
		_, after, _ := strings.Cut(src, " td.")
		class, _, _ = strings.Cut(after, " ")
		return class, true
	}
	filed := make(map[string]int)
	for ri := range sheet.Rules {
		if class, ok := vbRule(int32(ri)); ok {
			filed[class]++
		}
	}
	if len(filed) == 0 {
		t.Fatal("the forum's stylesheet has no .vb-rule-N td.cK rules")
	}
	for _, classes := range [][]string{nil, {"alt1"}, {"c3"}, {"alt2", "c5"}} {
		offered := make(map[string]int)
		for _, ri := range sheet.index.offer(nil, "", classes, "td") {
			if class, ok := vbRule(ri); ok {
				offered[class]++
			}
		}
		for class, count := range offered {
			if !slices.Contains(classes, class) {
				t.Errorf("<td class=%q> is offered %d .vb-rule-N td.%s rules", strings.Join(classes, " "), count, class)
			}
		}
		for _, class := range classes {
			if offered[class] != filed[class] {
				t.Errorf("<td class=%q> is offered %d of the %d .vb-rule-N td.%s rules", strings.Join(classes, " "), offered[class], filed[class], class)
			}
		}
	}
}
