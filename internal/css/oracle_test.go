package css

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"testing"

	"msite/internal/dom"
	"msite/internal/html"
	"msite/internal/origin"
)

// This file keeps the parser as it was before it cut its input in place —
// splitTopLevel, the expand* shorthand functions, a selector that grew
// its own parts and a comment stripper that copied the sheet once per
// comment — as an oracle: the parser now allocates a fraction of what
// this one did and must read every input exactly as it does.

func oracleParseStylesheet(src string) *Stylesheet {
	sheet := &Stylesheet{src: oracleStripComments(src)}
	sheet.pieces = oracleParseRules(sheet.src, "", sheet)
	return sheet
}

func oracleParseRules(src, media string, sheet *Stylesheet) []piece {
	var pieces []piece
	pos := 0
	for pos < len(src) {
		for pos < len(src) && isCSSSpace(src[pos]) {
			pos++
		}
		if pos >= len(src) {
			break
		}
		if src[pos] == '@' {
			var p piece
			p, pos = oracleParseAtRule(src, pos, media, sheet)
			pieces = append(pieces, p)
			continue
		}
		braceIdx := indexTopLevel(src[pos:], '{')
		if braceIdx < 0 {
			pieces = append(pieces, piece{text: src[pos:]})
			break
		}
		selText := strings.TrimSpace(src[pos : pos+braceIdx])
		bodyStart := pos + braceIdx + 1
		bodyEnd := matchBrace(src, pos+braceIdx)
		if bodyEnd < 0 {
			bodyEnd = len(src)
			sheet.unclosed = true
		}
		body := src[bodyStart:bodyEnd]
		source := src[pos:min(bodyEnd+1, len(src))]
		pos = bodyEnd + 1
		sels, err := oracleParseSelectorList(selText)
		var decls []Declaration
		if err == nil {
			decls = oracleParseDeclarations(body)
		}
		if len(decls) == 0 {
			pieces = append(pieces, piece{text: source})
			continue
		}
		pieces = append(pieces, piece{kind: rulePiece, rule: len(sheet.Rules)})
		sheet.Rules = append(sheet.Rules, Rule{Selectors: sels, Decls: decls, Media: media, Source: source})
	}
	return pieces
}

func oracleParseAtRule(src string, pos int, media string, sheet *Stylesheet) (piece, int) {
	semi := strings.IndexByte(src[pos:], ';')
	brace := indexTopLevel(src[pos:], '{')
	if semi >= 0 && (brace < 0 || semi < brace) {
		return piece{kind: statementPiece, text: src[pos : pos+semi+1]}, pos + semi + 1
	}
	if brace < 0 {
		return piece{kind: statementPiece, text: src[pos:]}, len(src)
	}
	header := strings.TrimSpace(src[pos : pos+brace])
	end := matchBrace(src, pos+brace)
	if end < 0 {
		end = len(src)
		sheet.unclosed = true
	}
	next := min(end+1, len(src))
	if !strings.HasPrefix(header, "@media") {
		return piece{text: src[pos:next]}, next
	}
	cond := strings.TrimSpace(strings.TrimPrefix(header, "@media"))
	if media != "" {
		cond = media + " and " + cond
	}
	block := oracleParseRules(src[pos+brace+1:end], cond, sheet)
	return piece{kind: mediaPiece, text: header, block: block}, next
}

func oracleParseDeclarations(src string) []Declaration {
	var out []Declaration
	for _, part := range oracleSplitTopLevel(oracleStripComments(src), ';') {
		colon := indexTopLevel(part, ':')
		if colon <= 0 {
			continue
		}
		prop := strings.ToLower(strings.TrimSpace(part[:colon]))
		val := strings.TrimSpace(part[colon+1:])
		if prop == "" || val == "" {
			continue
		}
		d := Declaration{Prop: prop, Value: val}
		if strings.HasSuffix(strings.ToLower(val), "!important") {
			d.Important = true
			d.Value = strings.TrimSpace(val[:len(val)-len("!important")])
		}
		out = append(out, oracleExpandShorthand(d)...)
	}
	return out
}

// oracleStripComments is the comment stripper that rebuilt the rest of
// the sheet once per comment.
func oracleStripComments(src string) string {
	for {
		start := strings.Index(src, "/*")
		if start < 0 {
			return src
		}
		end := strings.Index(src[start+2:], "*/")
		if end < 0 {
			return src[:start]
		}
		src = src[:start] + " " + src[start+2+end+2:]
	}
}

func oracleExpandShorthand(d Declaration) []Declaration {
	switch d.Prop {
	case "margin", "padding":
		return oracleExpandBox(d.Prop, d)
	case "border-width":
		return oracleExpandBox("border", d, "-width")
	case "border":
		return oracleExpandBorder(d, "top", "right", "bottom", "left")
	case "border-top", "border-right", "border-bottom", "border-left":
		side := strings.TrimPrefix(d.Prop, "border-")
		return oracleExpandBorder(d, side)
	case "background":
		for _, tok := range strings.Fields(d.Value) {
			if _, ok := ParseColor(tok); ok {
				return []Declaration{{Prop: "background-color", Value: tok, Important: d.Important}}
			}
		}
		return []Declaration{d}
	default:
		return []Declaration{d}
	}
}

func oracleExpandBox(prefix string, d Declaration, suffix ...string) []Declaration {
	suf := ""
	if len(suffix) > 0 {
		suf = suffix[0]
	}
	vals := strings.Fields(d.Value)
	if len(vals) == 0 || len(vals) > 4 {
		return nil
	}
	var top, right, bottom, left string
	switch len(vals) {
	case 1:
		top, right, bottom, left = vals[0], vals[0], vals[0], vals[0]
	case 2:
		top, right, bottom, left = vals[0], vals[1], vals[0], vals[1]
	case 3:
		top, right, bottom, left = vals[0], vals[1], vals[2], vals[1]
	case 4:
		top, right, bottom, left = vals[0], vals[1], vals[2], vals[3]
	}
	mk := func(side, v string) Declaration {
		return Declaration{Prop: prefix + "-" + side + suf, Value: v, Important: d.Important}
	}
	return []Declaration{mk("top", top), mk("right", right), mk("bottom", bottom), mk("left", left)}
}

func oracleExpandBorder(d Declaration, sides ...string) []Declaration {
	var width, style, colorVal string
	for _, tok := range strings.Fields(d.Value) {
		lower := strings.ToLower(tok)
		switch {
		case lower == "none" || lower == "solid" || lower == "dashed" ||
			lower == "dotted" || lower == "double" || lower == "hidden":
			style = lower
		default:
			if _, ok := ParseColor(tok); ok {
				colorVal = tok
			} else if _, ok := ParseLength(tok, 0); ok || lower == "thin" || lower == "medium" || lower == "thick" {
				switch lower {
				case "thin":
					width = "1px"
				case "medium":
					width = "3px"
				case "thick":
					width = "5px"
				default:
					width = tok
				}
			}
		}
	}
	var out []Declaration
	for _, side := range sides {
		if width != "" {
			out = append(out, Declaration{Prop: "border-" + side + "-width", Value: width, Important: d.Important})
		}
		if style != "" {
			out = append(out, Declaration{Prop: "border-" + side + "-style", Value: style, Important: d.Important})
		}
		if colorVal != "" {
			out = append(out, Declaration{Prop: "border-" + side + "-color", Value: colorVal, Important: d.Important})
		}
	}
	return out
}

func oracleSplitTopLevel(src string, sep byte) []string {
	var (
		out   []string
		depth int
		quote byte
		start int
	)
	for i := 0; i < len(src); i++ {
		c := src[i]
		if quote != 0 {
			if c == quote {
				quote = 0
			}
			continue
		}
		switch c {
		case '"', '\'':
			quote = c
		case '(', '[':
			depth++
		case ')', ']':
			depth--
		case sep:
			if depth == 0 {
				part := strings.TrimSpace(src[start:i])
				if part != "" {
					out = append(out, part)
				}
				start = i + 1
			}
		}
	}
	if part := strings.TrimSpace(src[start:]); part != "" {
		out = append(out, part)
	}
	return out
}

func oracleParseSelectorList(src string) ([]*Selector, error) {
	var out []*Selector
	for _, part := range oracleSplitTopLevel(src, ',') {
		sel, err := oracleParseSelector(part)
		if err != nil {
			return nil, err
		}
		out = append(out, sel)
	}
	if len(out) == 0 {
		return nil, ErrEmptySelector
	}
	return out, nil
}

func oracleParseSelector(src string) (*Selector, error) {
	p := &selParser{src: strings.TrimSpace(src)}
	sel, err := oracleSelParse(p)
	if err != nil {
		return nil, fmt.Errorf("css: parsing selector %q: %w", src, err)
	}
	sel.raw = strings.TrimSpace(src)
	return sel, nil
}

func oracleSelParse(p *selParser) (*Selector, error) {
	var (
		parts []compound
		combs []Combinator
	)
	comp, err := p.parseCompound()
	if err != nil {
		return nil, err
	}
	parts = append(parts, comp)
	for {
		comb, ok := p.parseCombinator()
		if !ok {
			break
		}
		next, err := p.parseCompound()
		if err != nil {
			return nil, err
		}
		parts = append(parts, next)
		combs = append(combs, comb)
	}
	if p.pos < len(p.src) {
		return nil, fmt.Errorf("unexpected %q at offset %d", p.src[p.pos], p.pos)
	}
	for i, j := 0, len(parts)-1; i < j; i, j = i+1, j-1 {
		parts[i], parts[j] = parts[j], parts[i]
	}
	for i, j := 0, len(combs)-1; i < j; i, j = i+1, j-1 {
		combs[i], combs[j] = combs[j], combs[i]
	}
	sel := &Selector{parts: parts, combs: combs}
	sel.spec = computeSpecificity(parts)
	for _, comp := range parts {
		for _, ps := range comp.pseudos {
			switch ps.name {
			case "link", "visited", "hover", "active", "focus", "checked":
				sel.userState = true
			case "not":
				sel.userState = sel.userState || ps.sub.userState
			}
		}
	}
	return sel, nil
}

// selectorDiff says how got differs from want, or "" when they read the
// same: text, specificity, user state and every compound and combinator.
func selectorDiff(got, want *Selector) string {
	switch {
	case got.String() != want.String():
		return fmt.Sprintf("text %q, want %q", got.String(), want.String())
	case got.Specificity() != want.Specificity():
		return fmt.Sprintf("%q: specificity %d, want %d", want.raw, got.Specificity(), want.Specificity())
	case got.userState != want.userState:
		return fmt.Sprintf("%q: userState %v, want %v", want.raw, got.userState, want.userState)
	case len(got.parts) != len(want.parts) || !slices.Equal(got.combs, want.combs):
		return fmt.Sprintf("%q: %d compounds %v, want %d %v", want.raw, len(got.parts), got.combs, len(want.parts), want.combs)
	}
	for i, g := range got.parts {
		w := want.parts[i]
		if g.tag != w.tag || g.id != w.id || !slices.Equal(g.classes, w.classes) ||
			!slices.Equal(g.attrs, w.attrs) || len(g.pseudos) != len(w.pseudos) {
			return fmt.Sprintf("%q: compound %d is %+v, want %+v", want.raw, i, g, w)
		}
		for j, gp := range g.pseudos {
			wp := w.pseudos[j]
			if gp.name != wp.name || gp.arg != wp.arg || gp.a != wp.a || gp.b != wp.b || (gp.sub == nil) != (wp.sub == nil) {
				return fmt.Sprintf("%q: pseudo %d is %+v, want %+v", want.raw, j, gp, wp)
			}
			if gp.sub != nil {
				if d := selectorDiff(gp.sub, wp.sub); d != "" {
					return d
				}
			}
		}
	}
	return ""
}

// selectorListDiff compares two ParseSelectorList results.
func selectorListDiff(got []*Selector, gotErr error, want []*Selector, wantErr error) string {
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		return fmt.Sprintf("error %v, want %v", gotErr, wantErr)
	}
	if len(got) != len(want) {
		return fmt.Sprintf("%d selectors, want %d", len(got), len(want))
	}
	for i := range got {
		if d := selectorDiff(got[i], want[i]); d != "" {
			return d
		}
	}
	return ""
}

// sheetDiff says how got differs from want, or "" when the two are the
// same parse: every rule, its selectors and declarations, the pieces and
// the text they span.
func sheetDiff(got, want *Stylesheet) string {
	switch {
	case got.src != want.src:
		return fmt.Sprintf("source %q, want %q", got.src, want.src)
	case got.unclosed != want.unclosed:
		return fmt.Sprintf("unclosed %v, want %v", got.unclosed, want.unclosed)
	case len(got.Rules) != len(want.Rules):
		return fmt.Sprintf("%d rules, want %d", len(got.Rules), len(want.Rules))
	case !reflect.DeepEqual(got.pieces, want.pieces):
		return fmt.Sprintf("pieces %+v, want %+v", got.pieces, want.pieces)
	}
	for i := range got.Rules {
		g, w := &got.Rules[i], &want.Rules[i]
		if g.Media != w.Media || g.Source != w.Source || !slices.Equal(g.Decls, w.Decls) {
			return fmt.Sprintf("rule %d is %+v, want %+v", i, *g, *w)
		}
		if d := selectorListDiff(g.Selectors, nil, w.Selectors, nil); d != "" {
			return fmt.Sprintf("rule %d: %s", i, d)
		}
	}
	return ""
}

// checkAgainstOracle parses src as a stylesheet, a declaration block and
// a selector list with the parser and its oracle, and fails on any
// difference.
func checkAgainstOracle(t *testing.T, name, src string) {
	t.Helper()
	if d := sheetDiff(ParseStylesheet(src), oracleParseStylesheet(src)); d != "" {
		t.Fatalf("%s: ParseStylesheet: %s\nsource %q", name, d, src)
	}
	if got, want := ParseDeclarations(src), oracleParseDeclarations(src); !slices.Equal(got, want) {
		t.Fatalf("%s: ParseDeclarations = %+v, want %+v\nsource %q", name, got, want, src)
	}
	got, gotErr := ParseSelectorList(src)
	want, wantErr := oracleParseSelectorList(src)
	if d := selectorListDiff(got, gotErr, want, wantErr); d != "" {
		t.Fatalf("%s: ParseSelectorList: %s\nsource %q", name, d, src)
	}
}

// get serves path from h and returns the body.
func get(t testing.TB, h http.Handler, path string) string {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET %s = %d", path, rec.Code)
	}
	return rec.Body.String()
}

// forumSheet returns the synthetic forum's 30 KB external stylesheet.
func forumSheet(t testing.TB, seed int64) string {
	cfg := origin.DefaultForumConfig()
	cfg.Seed = seed
	return get(t, origin.NewForum(cfg).Handler(), "/clientscript/vbulletin.css")
}

// styleTexts collects the <style> sheets and the style attribute values
// of an HTML page.
func styleTexts(page string) (sheets, inline []string) {
	html.Parse(page).Walk(func(n *dom.Node) bool {
		if n.Type != dom.ElementNode {
			return true
		}
		if n.Tag == "style" {
			sheets = append(sheets, StyleSource(n))
		}
		if v, ok := n.Attr("style"); ok {
			inline = append(inline, v)
		}
		return true
	})
	return sheets, inline
}

// oracleInline are declaration blocks that take the cases the corpus
// does not: every shorthand in each value count, !important in any case
// and after a non-ASCII rune, comments, nesting and stray brackets.
var oracleInline = []string{
	"color: red !important; width: 10px",
	"MARGIN: 1PX 2PX !IMPORTANT; Padding: 1px 2px 3px",
	"margin: 1px 2px 3px 4px 5px; padding: ; border-width: thin 2px",
	"border: thin dotted navy; border-left: 3px SOLID #ABC; border-top: none",
	"border-right: medium; border-bottom: #fff; border: bogus",
	"background: url(a;b.png) no-repeat #F5F5FF; background: none",
	"/* a */ color: /* b */ red; /* unterminated",
	"content: \"a;b\"; quotes: '[' ']'; x: f(a;b)[c;d]",
	"a: b); c: d; e: f",
	"a: b]; c: (d; e: f",
	"color: red !İmportant; color: blue !ımportant",
	"width: 1px !éimportant; x: \xff!important",
	":no-prop; : ; ;;; a:; b : c",
}

// TestParseMatchesOracle parses every stylesheet and inline style the
// origins serve, the benchmark's sheet and the declaration blocks above
// with the parser and its oracle, which must agree on every value.
func TestParseMatchesOracle(t *testing.T) {
	inputs := map[string]string{"benchmark sheet": benchSheet}
	var inline []string
	for _, seed := range []int64{42, 7} {
		inputs[fmt.Sprintf("vbulletin.css seed %d", seed)] = forumSheet(t, seed)
		cfg := origin.DefaultForumConfig()
		cfg.Seed = seed
		forum := origin.NewForum(cfg).Handler()
		ccfg := origin.DefaultClassifiedsConfig()
		ccfg.Seed = seed
		classifieds := origin.NewClassifieds(ccfg).Handler()
		pages := map[string]string{
			"forum /":                   get(t, forum, "/"),
			"forum /forumdisplay.php":   get(t, forum, "/forumdisplay.php?f=2"),
			"forum /login.php":          get(t, forum, "/login.php"),
			"classifieds /search/tools": get(t, classifieds, "/search/tools"),
			"classifieds /post":         get(t, classifieds, "/post/t0001.html"),
		}
		for page, body := range pages {
			sheets, attrs := styleTexts(body)
			for i, s := range sheets {
				inputs[fmt.Sprintf("%s <style> %d seed %d", page, i, seed)] = s
			}
			inline = append(inline, attrs...)
		}
	}
	for i, s := range fuzzSheets {
		inputs[fmt.Sprintf("fuzz seed %d", i)] = s
	}
	for i, s := range append(inline, oracleInline...) {
		inputs[fmt.Sprintf("inline %d", i)] = s
	}
	for name, src := range inputs {
		checkAgainstOracle(t, name, src)
	}
}
