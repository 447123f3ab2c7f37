package css

import (
	"strings"
	"sync"
	"sync/atomic"
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
	sheet.pieces = parseRules(sheet.src, "", sheet)
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

// parseRules appends the style rules of src to sheet.Rules and returns
// src cut into pieces.
func parseRules(src, media string, sheet *Stylesheet) []piece {
	var pieces []piece
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
			var p piece
			p, pos = parseAtRule(src, pos, media, sheet)
			pieces = append(pieces, p)
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
			sheet.unclosed = true
		}
		body := src[bodyStart:bodyEnd]
		source := src[pos:min(bodyEnd+1, len(src))]
		pos = bodyEnd + 1

		// An unparseable selector list or an empty block is not a rule to
		// style with, but only text the parser failed to read: it stays.
		sels, err := ParseSelectorList(selText)
		var decls []Declaration
		if err == nil {
			decls = ParseDeclarations(body)
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

// parseAtRule handles @media (recursing into its block), and skips any
// other at-rule safely. It returns the rule as a piece and the position
// after it.
func parseAtRule(src string, pos int, media string, sheet *Stylesheet) (piece, int) {
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
		sheet.unclosed = true
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
	block := parseRules(src[pos+brace+1:end], cond, sheet)
	return piece{kind: mediaPiece, text: header, block: block}, next
}

// ParseDeclarations parses the inside of a declaration block (or an
// inline style attribute value).
func ParseDeclarations(src string) []Declaration {
	var out []Declaration
	for _, part := range splitTopLevel(stripComments(src), ';') {
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
		out = append(out, expandShorthand(d)...)
	}
	return out
}

// expandShorthand expands the shorthand properties the layout engine
// consumes into their longhand forms. Unknown properties pass through.
func expandShorthand(d Declaration) []Declaration {
	switch d.Prop {
	case "margin", "padding":
		return expandBox(d.Prop, d)
	case "border-width":
		return expandBox("border", d, "-width")
	case "border":
		return expandBorder(d, "top", "right", "bottom", "left")
	case "border-top", "border-right", "border-bottom", "border-left":
		side := strings.TrimPrefix(d.Prop, "border-")
		return expandBorder(d, side)
	case "background":
		// Take the first token that parses as a color.
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

// expandBox expands 1-4 value box shorthands: margin/padding/border-width.
func expandBox(prefix string, d Declaration, suffix ...string) []Declaration {
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

// expandBorder expands "border[-side]: width style color" for the given
// sides.
func expandBorder(d Declaration, sides ...string) []Declaration {
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

func stripComments(src string) string {
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
