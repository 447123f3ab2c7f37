package css

import (
	"reflect"
	"testing"

	"msite/internal/html"
)

func TestParseStylesheetBasic(t *testing.T) {
	sheet := ParseStylesheet(`
		body { margin: 0; color: black }
		.tborder, .alt1 { background: #f5f5ff; border: 1px solid #888; }
	`)
	if len(sheet.Rules) != 2 {
		t.Fatalf("rules = %d", len(sheet.Rules))
	}
	if len(sheet.Rules[1].Selectors) != 2 {
		t.Fatalf("selectors = %d", len(sheet.Rules[1].Selectors))
	}
	// border shorthand expands to 12 longhands + background-color.
	var hasBorderTop, hasBG bool
	for _, d := range sheet.Rules[1].Decls {
		if d.Prop == "border-top-width" && d.Value == "1px" {
			hasBorderTop = true
		}
		if d.Prop == "background-color" && d.Value == "#f5f5ff" {
			hasBG = true
		}
	}
	if !hasBorderTop || !hasBG {
		t.Fatalf("shorthand expansion missing: %+v", sheet.Rules[1].Decls)
	}
}

func TestParseStylesheetComments(t *testing.T) {
	sheet := ParseStylesheet(`/* header */ p { /* inner */ color: red; } /* trailing`)
	if len(sheet.Rules) != 1 || sheet.Rules[0].Decls[0].Value != "red" {
		t.Fatalf("rules: %+v", sheet.Rules)
	}
}

func TestParseStylesheetSkipsBadSelector(t *testing.T) {
	sheet := ParseStylesheet(`
		p:nosuchpseudo(3) { color: red }
		b { color: blue }
	`)
	if len(sheet.Rules) != 1 {
		t.Fatalf("rules = %d, want only the b rule", len(sheet.Rules))
	}
}

func TestParseStylesheetMedia(t *testing.T) {
	sheet := ParseStylesheet(`
		@media screen { p { color: red } }
		@media print { p { color: black } }
		@import url("other.css");
		@font-face { font-family: X; src: url(x.woff) }
		b { font-weight: bold }
	`)
	if len(sheet.Rules) != 3 {
		t.Fatalf("rules = %d: %+v", len(sheet.Rules), sheet.Rules)
	}
	if sheet.Rules[0].Media != "screen" || sheet.Rules[1].Media != "print" {
		t.Fatalf("media wrong: %q %q", sheet.Rules[0].Media, sheet.Rules[1].Media)
	}
	if sheet.Rules[2].Media != "" {
		t.Fatal("bare rule should have no media")
	}
}

func TestParseDeclarationsImportant(t *testing.T) {
	decls := ParseDeclarations(`color: red !important; width: 10px`)
	if len(decls) != 2 {
		t.Fatalf("decls = %+v", decls)
	}
	if !decls[0].Important || decls[0].Value != "red" {
		t.Fatalf("important parse wrong: %+v", decls[0])
	}
	if decls[1].Important {
		t.Fatal("width should not be important")
	}
}

func TestParseDeclarationsURLValue(t *testing.T) {
	decls := ParseDeclarations(`background-image: url(a;b.png); color: red`)
	if len(decls) != 2 {
		t.Fatalf("semicolon inside url() split wrongly: %+v", decls)
	}
}

func TestExpandBoxVariants(t *testing.T) {
	check := func(value string, top, right, bottom, left string) {
		t.Helper()
		decls := ParseDeclarations("margin: " + value)
		got := map[string]string{}
		for _, d := range decls {
			got[d.Prop] = d.Value
		}
		want := map[string]string{
			"margin-top": top, "margin-right": right,
			"margin-bottom": bottom, "margin-left": left,
		}
		for k, v := range want {
			if got[k] != v {
				t.Errorf("margin:%q → %s = %q, want %q", value, k, got[k], v)
			}
		}
	}
	check("5px", "5px", "5px", "5px", "5px")
	check("1px 2px", "1px", "2px", "1px", "2px")
	check("1px 2px 3px", "1px", "2px", "3px", "2px")
	check("1px 2px 3px 4px", "1px", "2px", "3px", "4px")
}

func TestExpandBorderKeywordWidths(t *testing.T) {
	decls := ParseDeclarations("border: thin dotted navy")
	got := map[string]string{}
	for _, d := range decls {
		got[d.Prop] = d.Value
	}
	if got["border-left-width"] != "1px" || got["border-top-style"] != "dotted" || got["border-right-color"] != "navy" {
		t.Fatalf("border expansion: %v", got)
	}
}

func TestUnbalancedBracesRecovered(t *testing.T) {
	sheet := ParseStylesheet(`p { color: red`)
	if len(sheet.Rules) != 1 {
		t.Fatalf("rules = %d", len(sheet.Rules))
	}
}

func TestComputedStyleCascade(t *testing.T) {
	doc := html.Parse(`
		<html><head><style>
			p { color: blue; font-size: 12px }
			.big { font-size: 20px }
			#special { color: green }
		</style></head>
		<body>
			<p id="special" class="big" style="margin-top: 3px">text</p>
			<p>plain</p>
		</body></html>`)
	styler := StylerForDocument(doc)
	body := doc.Body()
	bodyStyle := styler.ComputedStyle(body, nil)

	ps := doc.Elements("p")
	st := styler.ComputedStyle(ps[0], bodyStyle)
	if st.Get("color", "") != "green" {
		t.Errorf("id should beat tag: color = %q", st.Get("color", ""))
	}
	if st.Get("font-size", "") != "20px" {
		t.Errorf("class should beat tag: font-size = %q", st.Get("font-size", ""))
	}
	if st.Get("margin-top", "") != "3px" {
		t.Errorf("inline style lost: %q", st.Get("margin-top", ""))
	}

	st2 := styler.ComputedStyle(ps[1], bodyStyle)
	if st2.Get("color", "") != "blue" || st2.Get("font-size", "") != "12px" {
		t.Errorf("plain p style: %v", st2)
	}
}

func TestComputedStyleImportant(t *testing.T) {
	doc := html.Parse(`
		<html><head><style>
			p { color: red !important }
			#x { color: blue }
		</style></head>
		<body><p id="x">t</p></body></html>`)
	styler := StylerForDocument(doc)
	p := doc.Elements("p")[0]
	st := styler.ComputedStyle(p, nil)
	if st.Get("color", "") != "red" {
		t.Fatalf("!important should beat id: %q", st.Get("color", ""))
	}
}

func TestComputedStyleInheritance(t *testing.T) {
	doc := html.Parse(`
		<html><head><style>
			body { color: maroon; font-size: 14px }
		</style></head>
		<body><div><p><span>deep</span></p></div></body></html>`)
	styler := StylerForDocument(doc)
	body := doc.Body()
	bodyStyle := styler.ComputedStyle(body, nil)
	div := doc.Elements("div")[0]
	divStyle := styler.ComputedStyle(div, bodyStyle)
	p := doc.Elements("p")[0]
	pStyle := styler.ComputedStyle(p, divStyle)
	span := doc.Elements("span")[0]
	spanStyle := styler.ComputedStyle(span, pStyle)
	if spanStyle.Get("color", "") != "maroon" {
		t.Fatalf("color not inherited: %v", spanStyle)
	}
	if spanStyle.Get("font-size", "") != "14px" {
		t.Fatalf("font-size not inherited: %v", spanStyle)
	}
	// Non-inherited property must not leak.
	if _, ok := spanStyle["margin-top"]; ok {
		t.Fatal("margin must not inherit")
	}
}

func TestComputedStyleRelativeFontSize(t *testing.T) {
	doc := html.Parse(`
		<html><head><style>
			body { font-size: 20px }
			p { font-size: 150% }
			span { font-size: 0.5em }
		</style></head>
		<body><p><span>x</span></p></body></html>`)
	styler := StylerForDocument(doc)
	bodyStyle := styler.ComputedStyle(doc.Body(), nil)
	pStyle := styler.ComputedStyle(doc.Elements("p")[0], bodyStyle)
	if pStyle.Get("font-size", "") != "30px" {
		t.Fatalf("150%% of 20px = %q", pStyle.Get("font-size", ""))
	}
	spanStyle := styler.ComputedStyle(doc.Elements("span")[0], pStyle)
	if spanStyle.Get("font-size", "") != "15px" {
		t.Fatalf("0.5em of 30px = %q", spanStyle.Get("font-size", ""))
	}
}

func TestComputedStyleDefaults(t *testing.T) {
	doc := html.Parse(`<html><body><div>x</div><span>y</span><script>z</script><h1>t</h1></body></html>`)
	styler := StylerForDocument(doc)
	get := func(tag string) Style {
		return styler.ComputedStyle(doc.Elements(tag)[0], nil)
	}
	if get("div").Get("display", "") != "block" {
		t.Fatal("div should default block")
	}
	if get("span").Get("display", "") != "inline" {
		t.Fatal("span should default inline")
	}
	if get("script").Get("display", "") != "none" {
		t.Fatal("script should default none")
	}
	if get("h1").Get("font-weight", "") != "bold" {
		t.Fatal("h1 should default bold")
	}
}

func TestMediaFiltering(t *testing.T) {
	doc := html.Parse(`
		<html><head><style>
			@media print { p { color: black } }
			@media screen { p { color: red } }
		</style></head><body><p>x</p></body></html>`)
	styler := StylerForDocument(doc)
	p := doc.Elements("p")[0]
	if got := styler.ComputedStyle(p, nil).Get("color", ""); got != "red" {
		t.Fatalf("screen media should apply: %q", got)
	}
	styler.SetMedia("print")
	if got := styler.ComputedStyle(p, nil).Get("color", ""); got != "black" {
		t.Fatalf("print media should apply after SetMedia: %q", got)
	}
}

func TestSourceOrderTieBreak(t *testing.T) {
	doc := html.Parse(`
		<html><head><style>
			.a { color: red }
			.b { color: blue }
		</style></head><body><p class="a b">x</p></body></html>`)
	styler := StylerForDocument(doc)
	p := doc.Elements("p")[0]
	if got := styler.ComputedStyle(p, nil).Get("color", ""); got != "blue" {
		t.Fatalf("later rule should win tie: %q", got)
	}
}

func TestInheritKeyword(t *testing.T) {
	doc := html.Parse(`
		<html><head><style>
			body { background-color: #112233 }
			div { background-color: inherit }
			p { color: inherit }
		</style></head>
		<body><div><p style="margin-top: inherit">x</p></div></body></html>`)
	styler := StylerForDocument(doc)
	bodyStyle := styler.ComputedStyle(doc.Body(), nil)
	div := doc.Elements("div")[0]
	divStyle := styler.ComputedStyle(div, bodyStyle)
	// background-color is not inherited by default; "inherit" forces it.
	if got := divStyle.Get("background-color", ""); got != "#112233" {
		t.Fatalf("inherited background = %q", got)
	}
	p := doc.Elements("p")[0]
	pStyle := styler.ComputedStyle(p, divStyle)
	// color: inherit with no parent color resolves to nothing (root
	// default applies at paint time).
	if v, ok := pStyle["margin-top"]; ok && v == "inherit" {
		t.Fatalf("inline inherit not resolved: %q", v)
	}
}

func TestInheritAtRootDropped(t *testing.T) {
	doc := html.Parse(`<html><body style="color: inherit">x</body></html>`)
	styler := StylerForDocument(doc)
	st := styler.ComputedStyle(doc.Body(), nil)
	if v, ok := st["color"]; ok && v == "inherit" {
		t.Fatalf("root inherit leaked: %q", v)
	}
}

func TestStyleMediaAttributeFiltered(t *testing.T) {
	doc := html.Parse(`
		<html><head>
		<style media="print">p { color: black }</style>
		<style media="screen">p { color: red }</style>
		<style>p { font-size: 18px }</style>
		</head><body><p>x</p></body></html>`)
	styler := StylerForDocument(doc)
	p := doc.Elements("p")[0]
	st := styler.ComputedStyle(p, nil)
	if st.Get("color", "") != "red" {
		t.Fatalf("color = %q, print sheet should be skipped", st.Get("color", ""))
	}
	if st.Get("font-size", "") != "18px" {
		t.Fatal("unscoped sheet should apply")
	}
}

// TestRuleWindowsAreExact: a rule's selector list and declarations and a
// compound's class list are windows of the sheet's slabs, cut with
// len == cap, so that appending to one copies it out instead of writing
// over the next, and each selector is what ParseSelector makes of its
// text. The forum's sheet runs its slabs to several chunks; the small
// sheet mixes selector lists, failed rules, @media and :not().
func TestRuleWindowsAreExact(t *testing.T) {
	small := `a.x.y, b .z { margin: 0 } .bad.x:nosuch, .y { color: red } .ok { color: blue }
		@media screen { p.q:not(.r) { border: 1px solid red } }
		div { } .s.t.u { padding: 1px 2px }`
	for name, src := range map[string]string{"vbulletin.css": forumSheet(t, 42), "small": small} {
		for i, r := range ParseStylesheet(src).Rules {
			if len(r.Decls) != cap(r.Decls) || len(r.Selectors) != cap(r.Selectors) {
				t.Errorf("%s rule %d %q: decls len %d cap %d, selectors len %d cap %d",
					name, i, r.Source, len(r.Decls), cap(r.Decls), len(r.Selectors), cap(r.Selectors))
			}
			for _, sel := range r.Selectors {
				if fresh := MustSelector(sel.String()); !reflect.DeepEqual(*sel, *fresh) {
					t.Errorf("%s rule %d: selector %q parsed as %+v, ParseSelector makes %+v",
						name, i, sel, sel.parts, fresh.parts)
				}
				for _, c := range sel.parts {
					if len(c.classes) != cap(c.classes) {
						t.Errorf("%s rule %d %q: class list %v has len %d cap %d",
							name, i, r.Source, c.classes, len(c.classes), cap(c.classes))
					}
				}
			}
		}
	}
}
