package css

import (
	"iter"
	"strings"
	"sync"
	"sync/atomic"

	"msite/internal/dom"
)

// Declaration is a single property: value pair.
type Declaration struct {
	Prop      string
	Value     string
	Important bool
}

// Rule is one style rule: a selector list and its declarations. Media
// holds the enclosing @media condition, or "" for none.
type Rule struct {
	Selectors []*Selector
	Decls     []Declaration
	Media     string
	// Source is the rule as written, selector list through closing brace:
	// a span of the sheet's source text (comments stripped), not a copy.
	Source string
}

// Stylesheet is a parsed sequence of rules in source order. It is not
// modified once parsed, so stylers and goroutines may share one.
type Stylesheet struct {
	Rules []Rule
	// pieces is everything in the source, in order: what Prune chooses
	// from.
	pieces []piece
	// src is the source the pieces are spans of: the text parsed, less its
	// comments. unclosed says it ends inside a block or a string; Prune
	// does not cut into such a sheet.
	src      string
	unclosed bool
	// index is the rules' rule hash, built with them, so that every
	// Styler sharing the sheet shares it too. A Stylesheet that
	// ParseStylesheet did not make has none, and a Styler finds no rule
	// of it.
	index ruleIndex
}

// piece is one top-level span of a stylesheet's source, or of an @media
// block's body.
type piece struct {
	kind pieceKind
	// rule indexes Stylesheet.Rules, for a rulePiece.
	rule int
	// text is the piece as written; for a mediaPiece, its prelude.
	text string
	// block is a mediaPiece's body.
	block []piece
}

type pieceKind uint8

const (
	// textPiece is text the parser did not understand: a rule whose
	// selector list it rejects or whose block is empty, a block at-rule
	// other than @media, whatever trails the last rule.
	textPiece pieceKind = iota
	// rulePiece is a style rule in Stylesheet.Rules.
	rulePiece
	// statementPiece is an at-rule without a block (@import ...;).
	statementPiece
	// mediaPiece is an @media block.
	mediaPiece
)

// parses counts ParseStylesheet calls.
var parses atomic.Uint64

// ParseCount returns how many stylesheets this process has parsed; tests
// hold a build to one parse per distinct sheet with it.
func ParseCount() uint64 { return parses.Load() }

// ParseStylesheet parses CSS source. It is error-tolerant in the CSS
// tradition: rules whose selectors fail to parse are skipped, not fatal,
// so one vendor-prefixed oddity cannot take down a forum skin.
func ParseStylesheet(src string) *Stylesheet {
	parses.Add(1)
	sheet := &Stylesheet{src: stripComments(src)}
	// Every rule and every block has a '{': counted, they size the rules
	// and, but for statements and stray text, the top-level pieces.
	var pieces []piece
	blocks := strings.Count(sheet.src, "{")
	if blocks > 0 {
		sheet.Rules = make([]Rule, 0, blocks)
		pieces = make([]piece, 0, blocks+1)
	}
	p := sheetParser{sheet: sheet, blocks: blocks}
	// A rule has a selector, as most have just one, and a class name
	// takes a '.': the blocks size the selectors and the dots the class
	// names. How many longhands the rules expand to is not known before
	// they are parsed (see paceDecls).
	p.selectors.Chunk, p.lists.Chunk = blocks, blocks
	p.classes = classSlab(sheet.src)
	sheet.pieces = p.parseRules(sheet.src, "", pieces)
	if len(sheet.Rules) == 0 {
		sheet.Rules = nil
	}
	sheet.index = newRuleIndex(sheet.Rules)
	return sheet
}

// Sheets remembers parsed stylesheets by their source text, so that
// everything styling the documents of one build — which carry clones of
// the same <style> elements — parses each distinct text once. It is safe
// for concurrent use; a nil *Sheets parses and remembers nothing.
type Sheets struct {
	mu     sync.Mutex
	byText map[string]*Stylesheet
}

// Parse returns the parsed form of src, parsing it on first sight.
func (s *Sheets) Parse(src string) *Stylesheet {
	if s == nil {
		return ParseStylesheet(src)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	sheet, ok := s.byText[src]
	if !ok {
		if s.byText == nil {
			s.byText = make(map[string]*Stylesheet)
		}
		sheet = ParseStylesheet(src)
		s.byText[src] = sheet
	}
	return sheet
}

// sheetParser is the state one stylesheet's parse carries from rule to
// rule.
type sheetParser struct {
	sheet *Stylesheet
	// decls collects a rule's declarations, which are then copied out at
	// their exact size into declSlab.
	decls []Declaration
	// blocks is the sheet's '{' count: at most how many rules it holds.
	blocks int
	// The slabs the rules are cut from: each rule's selectors, its
	// selector list, its compounds' class lists and its declarations.
	// They live as long as the sheet does and no longer.
	selectors dom.Slab[Selector]
	lists     dom.Slab[*Selector]
	classes   dom.Slab[string]
	declSlab  dom.Slab[Declaration]
	// usedDecls counts the declarations the rules so far took.
	usedDecls int
}

// paceDecls sizes the declaration slab's next chunk for half the rules
// still to come, at the rate the rules parsed so far took declarations:
// a chunk then rarely holds more than the sheet needs, and the slab runs
// to a few chunks. A shorthand expands to up to twelve longhands, so no
// count of the source sizes the slab as closely: sized from the ':'
// count, the forum's sheet took more bytes a parse than it did with each
// rule's declarations an object of their own (docs/PERFORMANCE.md).
func (p *sheetParser) paceDecls() {
	if done := len(p.sheet.Rules); done > 0 {
		left := max(p.blocks-done, 1)
		p.declSlab.Chunk = max(p.usedDecls*left/(2*done), 1)
	}
}

// selectorList is ParseSelectorList with the selectors, the list and the
// class lists cut from the sheet's slabs.
func (p *sheetParser) selectorList(src string) ([]*Selector, error) {
	for part := range topLevelParts(src, ',') {
		// A Selector is never moved once parsed (its parts may point
		// into it), which New promises.
		sel := p.selectors.New()
		if err := sel.parse(part, &p.classes); err != nil {
			p.lists.Cut()
			return nil, err
		}
		p.lists.Add(sel)
	}
	sels := p.lists.Cut()
	if sels == nil {
		return nil, ErrEmptySelector
	}
	return sels, nil
}

// parseRules appends the style rules of src to the sheet's Rules and
// src cut into pieces to pieces, which it returns.
func (p *sheetParser) parseRules(src, media string, pieces []piece) []piece {
	pos := 0
	for pos < len(src) {
		// Skip whitespace.
		for pos < len(src) && isCSSSpace(src[pos]) {
			pos++
		}
		if pos >= len(src) {
			break
		}
		if src[pos] == '@' {
			var at piece
			at, pos = p.parseAtRule(src, pos, media)
			pieces = append(pieces, at)
			continue
		}
		// Selector up to '{'.
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
			p.sheet.unclosed = true
		}
		body := src[bodyStart:bodyEnd]
		source := src[pos:min(bodyEnd+1, len(src))]
		pos = bodyEnd + 1

		// An unparseable selector list or an empty block is not a rule to
		// style with, but only text the parser failed to read: it stays.
		sels, err := p.selectorList(selText)
		p.decls = p.decls[:0]
		if err == nil {
			p.decls = appendDeclarations(p.decls, body)
		}
		if len(p.decls) == 0 {
			pieces = append(pieces, piece{text: source})
			continue
		}
		sheet := p.sheet
		pieces = append(pieces, piece{kind: rulePiece, rule: len(sheet.Rules)})
		p.paceDecls()
		p.usedDecls += len(p.decls)
		sheet.Rules = append(sheet.Rules, Rule{Selectors: sels, Decls: p.declSlab.Clone(p.decls), Media: media, Source: source})
	}
	return pieces
}

// parseAtRule handles @media (recursing into its block), and skips any
// other at-rule safely. It returns the rule as a piece and the position
// after it.
func (p *sheetParser) parseAtRule(src string, pos int, media string) (piece, int) {
	semi := strings.IndexByte(src[pos:], ';')
	brace := indexTopLevel(src[pos:], '{')
	// Statement at-rule (@import, @charset ...): ends at ';'.
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
		p.sheet.unclosed = true
	}
	next := min(end+1, len(src))
	if !strings.HasPrefix(header, "@media") {
		// @font-face, @keyframes, @page ...: skipped.
		return piece{text: src[pos:next]}, next
	}
	cond := strings.TrimSpace(strings.TrimPrefix(header, "@media"))
	if media != "" {
		cond = media + " and " + cond
	}
	block := p.parseRules(src[pos+brace+1:end], cond, nil)
	return piece{kind: mediaPiece, text: header, block: block}, next
}

// ParseDeclarations parses the inside of a declaration block (or an
// inline style attribute value).
func ParseDeclarations(src string) []Declaration {
	return appendDeclarations(nil, src)
}

// appendDeclarations appends the declarations of the block src to dst,
// shorthands as their longhands, and returns the extended slice.
func appendDeclarations(dst []Declaration, src string) []Declaration {
	for part := range topLevelParts(stripComments(src), ';') {
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
		dst = appendLonghands(dst, d)
	}
	return dst
}

// The longhands of the box shorthands, in the order a value lists the
// sides: top, right, bottom, left.
var (
	marginSides      = [4]string{"margin-top", "margin-right", "margin-bottom", "margin-left"}
	paddingSides     = [4]string{"padding-top", "padding-right", "padding-bottom", "padding-left"}
	borderWidthSides = [4]string{"border-top-width", "border-right-width", "border-bottom-width", "border-left-width"}
)

// borderSides holds each side's width, style and color longhands, top,
// right, bottom, left.
var borderSides = [4][3]string{
	{"border-top-width", "border-top-style", "border-top-color"},
	{"border-right-width", "border-right-style", "border-right-color"},
	{"border-bottom-width", "border-bottom-style", "border-bottom-color"},
	{"border-left-width", "border-left-style", "border-left-color"},
}

// appendLonghands appends d to dst, a shorthand the layout engine
// consumes as its longhands. Other properties pass through.
func appendLonghands(dst []Declaration, d Declaration) []Declaration {
	switch d.Prop {
	case "margin":
		return appendBox(dst, &marginSides, d)
	case "padding":
		return appendBox(dst, &paddingSides, d)
	case "border-width":
		return appendBox(dst, &borderWidthSides, d)
	case "border":
		return appendBorder(dst, borderSides[:], d)
	case "border-top":
		return appendBorder(dst, borderSides[0:1], d)
	case "border-right":
		return appendBorder(dst, borderSides[1:2], d)
	case "border-bottom":
		return appendBorder(dst, borderSides[2:3], d)
	case "border-left":
		return appendBorder(dst, borderSides[3:4], d)
	case "background":
		// Take the first token that parses as a color.
		for tok := range strings.FieldsSeq(d.Value) {
			if _, ok := ParseColor(tok); ok {
				return append(dst, Declaration{Prop: "background-color", Value: tok, Important: d.Important})
			}
		}
	}
	return append(dst, d)
}

// appendBox appends the four longhands of a 1-4 value box shorthand
// (margin, padding, border-width); a value of more than four tokens
// appends nothing.
func appendBox(dst []Declaration, sides *[4]string, d Declaration) []Declaration {
	var vals [4]string
	n := 0
	for tok := range strings.FieldsSeq(d.Value) {
		if n == len(vals) {
			return dst
		}
		vals[n] = tok
		n++
	}
	switch n {
	case 0:
		return dst
	case 1:
		vals[1], vals[2], vals[3] = vals[0], vals[0], vals[0]
	case 2:
		vals[2], vals[3] = vals[0], vals[1]
	case 3:
		vals[3] = vals[1]
	}
	for i, prop := range sides {
		dst = append(dst, Declaration{Prop: prop, Value: vals[i], Important: d.Important})
	}
	return dst
}

// appendBorder appends, for each of sides, the width, style and color
// longhands "border[-side]: width style color" sets.
func appendBorder(dst []Declaration, sides [][3]string, d Declaration) []Declaration {
	var vals [3]string // width, style, color
	for tok := range strings.FieldsSeq(d.Value) {
		lower := strings.ToLower(tok)
		switch {
		case lower == "none" || lower == "solid" || lower == "dashed" ||
			lower == "dotted" || lower == "double" || lower == "hidden":
			vals[1] = lower
		default:
			if _, ok := ParseColor(tok); ok {
				vals[2] = tok
			} else if _, ok := ParseLength(tok, 0); ok || lower == "thin" || lower == "medium" || lower == "thick" {
				switch lower {
				case "thin":
					vals[0] = "1px"
				case "medium":
					vals[0] = "3px"
				case "thick":
					vals[0] = "5px"
				default:
					vals[0] = tok
				}
			}
		}
	}
	for _, side := range sides {
		for i, prop := range side {
			if vals[i] != "" {
				dst = append(dst, Declaration{Prop: prop, Value: vals[i], Important: d.Important})
			}
		}
	}
	return dst
}

// stripComments replaces each /* … */ with one space and drops an
// unterminated comment with the rest of src, in one pass into one buffer;
// src without a comment comes back as it is.
func stripComments(src string) string {
	start := strings.Index(src, "/*")
	if start < 0 {
		return src
	}
	var b strings.Builder
	b.Grow(len(src))
	for start >= 0 {
		b.WriteString(src[:start])
		end := strings.Index(src[start+2:], "*/")
		if end < 0 {
			return b.String()
		}
		b.WriteByte(' ')
		src = src[start+2+end+2:]
		start = strings.Index(src, "/*")
	}
	b.WriteString(src)
	return b.String()
}

// topLevelParts yields the parts of src between the separators sep that
// are not nested inside parentheses, brackets or quotes, each trimmed of
// space, empty ones skipped.
func topLevelParts(src string, sep byte) iter.Seq[string] {
	return func(yield func(string) bool) {
		for rest := src; rest != ""; {
			var part string
			part, rest = cutTopLevel(rest, sep)
			if part = strings.TrimSpace(part); part != "" && !yield(part) {
				return
			}
		}
	}
}

// cutTopLevel slices src around the first sep that is not nested inside
// parentheses, brackets or quotes; after is "" when there is none. A
// closing bracket with no opener takes the depth below zero: no later sep
// cuts until an opener brings it back.
func cutTopLevel(src string, sep byte) (before, after string) {
	var depth int
	var quote byte
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
				return src[:i], src[i+1:]
			}
		}
	}
	return src, ""
}

// indexTopLevel returns the index of the first occurrence of target in
// src that is not nested inside braces, parens, brackets, or quotes.
func indexTopLevel(src string, target byte) int {
	var depth int
	var quote byte
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
			if depth > 0 {
				depth--
			}
		case '{':
			if target == '{' && depth == 0 {
				return i
			}
			depth++
		case '}':
			if depth > 0 {
				depth--
			}
		default:
			if c == target && depth == 0 {
				return i
			}
		}
	}
	return -1
}

// matchBrace returns the index of the '}' matching the '{' at open,
// or -1.
func matchBrace(src string, open int) int {
	depth := 0
	var quote byte
	for i := open; i < len(src); i++ {
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
		case '{':
			depth++
		case '}':
			depth--
			if depth == 0 {
				return i
			}
		}
	}
	return -1
}

func isCSSSpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '\f'
}
