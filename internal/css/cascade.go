package css

import (
	"cmp"
	"encoding/binary"
	"reflect"
	"slices"
	"strings"

	"msite/internal/dom"
)

// Style is a computed style: resolved property → value text. A Style that
// a Styler returns is shared by every element that cascades alike and
// must not be modified.
type Style map[string]string

// Get returns the property value or def.
func (s Style) Get(prop, def string) string {
	if v, ok := s[prop]; ok {
		return v
	}
	return def
}

// inheritedProps are properties that propagate from parent to child when
// not explicitly set.
var inheritedProps = map[string]bool{
	"color":           true,
	"font-family":     true,
	"font-size":       true,
	"font-weight":     true,
	"font-style":      true,
	"line-height":     true,
	"text-align":      true,
	"letter-spacing":  true,
	"white-space":     true,
	"list-style-type": true,
	"visibility":      true,
	"cursor":          true,
}

// blockTags are elements whose default display is block.
var blockTags = map[string]bool{
	"html": true, "body": true, "div": true, "p": true, "h1": true,
	"h2": true, "h3": true, "h4": true, "h5": true, "h6": true,
	"ul": true, "ol": true, "li": true, "dl": true, "dt": true, "dd": true,
	"table": true, "form": true, "fieldset": true, "blockquote": true,
	"pre": true, "hr": true, "address": true, "article": true,
	"aside": true, "footer": true, "header": true, "nav": true,
	"section": true, "main": true, "figure": true, "center": true,
}

// tableRowTags/tableCellTags get their own display defaults so the layout
// engine can treat table structure distinctly.
var tableRowTags = map[string]bool{"tr": true, "thead": true, "tbody": true, "tfoot": true}
var tableCellTags = map[string]bool{"td": true, "th": true}

// hiddenTags never generate boxes.
var hiddenTags = map[string]bool{
	"head": true, "script": true, "style": true, "meta": true,
	"link": true, "title": true, "base": true, "noscript": true,
}

// DefaultDisplay returns the initial display value for a tag.
func DefaultDisplay(tag string) string {
	switch {
	case hiddenTags[tag]:
		return "none"
	case tableCellTags[tag]:
		return "table-cell"
	case tag == "table":
		return "table"
	case tableRowTags[tag]:
		return "table-row"
	case blockTags[tag]:
		return "block"
	case tag == "img" || tag == "input" || tag == "select" ||
		tag == "textarea" || tag == "button":
		return "inline-block"
	default:
		return "inline"
	}
}

// defaultFontSizes maps heading levels to their conventional pixel sizes.
var defaultFontSizes = map[string]float64{
	"h1": 32, "h2": 24, "h3": 18.72, "h4": 16, "h5": 13.28, "h6": 10.72,
	"small": 13,
}

// defaultFontWeight is bold for these tags.
var boldTags = map[string]bool{
	"b": true, "strong": true, "h1": true, "h2": true, "h3": true,
	"h4": true, "h5": true, "h6": true, "th": true,
}

// Styler computes styles for a document against a set of stylesheets.
// The zero value is usable with no author styles; add sheets with
// AddSheet, or use StylerForDocument to collect <style> elements.
//
// A Styler memoizes: elements that cascade alike share one computed
// Style, which callers must treat as read-only. A Styler is not safe for
// concurrent use.
type Styler struct {
	sheets []*Stylesheet
	// mediaAccept, when non-empty, is the set of media condition
	// substrings considered active (e.g. "screen"). Rules with other
	// conditions are skipped.
	mediaAccept []string

	// styles holds every style computed so far by its key (see
	// appendKey); ids numbers them by map identity, so that a key can
	// name its parent style.
	styles map[string]Style
	ids    map[uintptr]uint32
	// key, hits, classes, cands, matched and important are scratch for
	// one ComputedStyle call: classes holds the element's class names and
	// cands the rules one sheet's rule hash offers it (see appendHits);
	// matched and important hold the declarations of the rules it
	// matched (see cascade).
	key       []byte
	hits      []ruleHit
	classes   []string
	cands     []int32
	matched   []weightedDecl
	important []weightedDecl
}

// NewStyler returns a Styler over the given stylesheets.
func NewStyler(sheets ...*Stylesheet) *Styler {
	return &Styler{sheets: sheets, mediaAccept: []string{"screen", "all"}}
}

// StylerForDocument collects every <style> element in doc into a
// Styler. Style elements whose media attribute targets another medium
// (e.g. media="print") are skipped, matching a screen renderer. memo, when
// given, is what the sheets are parsed through: stylers over documents
// that carry the same <style> text then share one parse of it.
func StylerForDocument(doc *dom.Node, memo ...*Sheets) *Styler {
	var sheets *Sheets
	if len(memo) > 0 {
		sheets = memo[0]
	}
	s := NewStyler()
	for _, styleEl := range doc.Elements("style") {
		if media := strings.ToLower(styleEl.AttrOr("media", "")); media != "" {
			if !strings.Contains(media, "screen") && !strings.Contains(media, "all") {
				continue
			}
		}
		s.AddSheet(sheets.Parse(StyleSource(styleEl)))
	}
	return s
}

// StyleSource returns a <style> element's stylesheet text: its raw text
// children (dom.Text() deliberately skips style content — it is code, not
// copy).
func StyleSource(styleEl *dom.Node) string {
	first := styleEl.FirstChild
	if first != nil && first.Type == dom.TextNode && first.NextSibling == nil {
		return first.Data // the usual case, without a copy
	}
	var src strings.Builder
	for c := first; c != nil; c = c.NextSibling {
		if c.Type == dom.TextNode {
			src.WriteString(c.Data)
		}
	}
	return src.String()
}

// AddSheet appends a stylesheet; later sheets win ties in source order.
func (s *Styler) AddSheet(sheet *Stylesheet) {
	s.sheets = append(s.sheets, sheet)
}

// SetMedia replaces the accepted media condition substrings.
func (s *Styler) SetMedia(accept ...string) {
	s.mediaAccept = make([]string, len(accept))
	copy(s.mediaAccept, accept)
}

func (s *Styler) mediaActive(cond string) bool {
	if cond == "" {
		return true
	}
	cond = strings.ToLower(cond)
	for _, acc := range s.mediaAccept {
		if strings.Contains(cond, acc) {
			return true
		}
	}
	return false
}

type weightedDecl struct {
	decl Declaration
	spec int
	seq  int
}

// ruleHit is one rule that matched an element: its sheet and rule
// ordinals and the best specificity among its selectors that matched.
type ruleHit struct {
	sheet, rule, spec int
}

// ComputedStyle resolves the style for one element: defaults, then
// inherited values from parentStyle (may be nil), then matching author
// rules by specificity and order, then the inline style attribute, with
// !important on top — the standard cascade.
//
// The result is memoized by everything the cascade reads (see appendKey)
// and shared with every element that cascades alike, so it must not be
// modified. A parentStyle this Styler did not return is cascaded afresh.
func (s *Styler) ComputedStyle(n *dom.Node, parentStyle Style) Style {
	s.hits = s.appendHits(s.hits[:0], n)
	var parentID uint32
	if parentStyle != nil {
		var ok bool
		if parentID, ok = s.ids[styleIdentity(parentStyle)]; !ok {
			return s.cascade(n, parentStyle, s.hits)
		}
	}
	s.key = appendKey(s.key[:0], parentID, n, s.hits)
	if st, ok := s.styles[string(s.key)]; ok {
		return st
	}
	st := s.cascade(n, parentStyle, s.hits)
	if s.styles == nil {
		s.styles = make(map[string]Style)
		s.ids = make(map[uintptr]uint32)
	}
	s.styles[string(s.key)] = st
	s.ids[styleIdentity(st)] = uint32(len(s.ids) + 1)
	return st
}

// styleIdentity is the address of a style's map, shared by every copy of
// the Style value. The styles a Styler numbers stay reachable from its
// styles map, so no other map can take one of their addresses.
func styleIdentity(st Style) uintptr {
	return reflect.ValueOf(st).Pointer()
}

// appendKey appends everything the cascade of n reads: the parent
// style's number (0 for none), the tag, the inline style, if any, and
// the rules that matched. Sheets are only ever appended to a Styler, so
// an ordinal names one rule for the Styler's life, and a key names only
// rules that applied, so it stays exact across AddSheet and SetMedia.
func appendKey(key []byte, parentID uint32, n *dom.Node, hits []ruleHit) []byte {
	key = binary.AppendUvarint(key, uint64(parentID))
	key = binary.AppendUvarint(key, uint64(len(n.Tag)))
	key = append(key, n.Tag...)
	if inline, ok := attrOf(n, "style"); ok {
		key = binary.AppendUvarint(key, uint64(len(inline))+1)
		key = append(key, inline...)
	} else {
		key = append(key, 0)
	}
	for _, h := range hits {
		key = binary.AppendUvarint(key, uint64(h.sheet))
		key = binary.AppendUvarint(key, uint64(h.rule))
		key = binary.AppendUvarint(key, uint64(h.spec))
	}
	return key
}

// cascade computes n's style from scratch, given the rules it matched.
func (s *Styler) cascade(n *dom.Node, parentStyle Style, hits []ruleHit) Style {
	out := Style{}

	// 1. Tag defaults.
	out["display"] = DefaultDisplay(n.Tag)
	if size, ok := defaultFontSizes[n.Tag]; ok {
		out["font-size"] = formatPx(size)
	}
	if boldTags[n.Tag] {
		out["font-weight"] = "bold"
	}
	switch n.Tag {
	case "i", "em":
		out["font-style"] = "italic"
	case "a":
		out["color"] = "#0000ee"
	case "center":
		out["text-align"] = "center"
	}

	// 2. Inheritance.
	for prop := range inheritedProps {
		if v, ok := parentStyle[prop]; ok {
			if _, set := out[prop]; !set {
				out[prop] = v
			}
		}
	}

	// 3. Author rules.
	matched, important := s.matched[:0], s.important[:0]
	seq := 0
	for _, h := range hits {
		for _, d := range s.sheets[h.sheet].Rules[h.rule].Decls {
			wd := weightedDecl{decl: d, spec: h.spec, seq: seq}
			seq++
			if d.Important {
				important = append(important, wd)
			} else {
				matched = append(matched, wd)
			}
		}
	}
	s.matched, s.important = matched, important
	applyOrdered := func(decls []weightedDecl) {
		slices.SortStableFunc(decls, func(a, b weightedDecl) int {
			return cmp.Or(cmp.Compare(a.spec, b.spec), cmp.Compare(a.seq, b.seq))
		})
		for _, wd := range decls {
			out[wd.decl.Prop] = wd.decl.Value
		}
	}
	applyOrdered(matched)

	// 4. Inline style (specificity above any selector, below !important).
	if inline, ok := attrOf(n, "style"); ok {
		var inlineImportant []weightedDecl
		for _, d := range ParseDeclarations(inline) {
			if d.Important {
				inlineImportant = append(inlineImportant, weightedDecl{decl: d})
				continue
			}
			out[d.Prop] = d.Value
		}
		// Inline !important outranks sheet !important; append after.
		applyOrdered(important)
		for _, wd := range inlineImportant {
			out[wd.decl.Prop] = wd.decl.Value
		}
		resolveRelative(out, parentStyle)
		resolveInherit(out, parentStyle)
		return out
	}

	// 5. !important from sheets.
	applyOrdered(important)
	resolveRelative(out, parentStyle)
	resolveInherit(out, parentStyle)
	return out
}

// resolveInherit substitutes explicit "inherit" values with the parent's
// computed value (or drops them at the root).
func resolveInherit(out Style, parentStyle Style) {
	for prop, val := range out {
		if strings.ToLower(strings.TrimSpace(val)) != "inherit" {
			continue
		}
		if parentStyle != nil {
			if pv, ok := parentStyle[prop]; ok {
				out[prop] = pv
				continue
			}
		}
		if prop == "display" {
			out[prop] = "inline"
			continue
		}
		delete(out, prop)
	}
}

// resolveRelative converts relative font-size values to absolute pixels
// so children inherit resolved values.
func resolveRelative(out Style, parentStyle Style) {
	fs, ok := out["font-size"]
	if !ok {
		return
	}
	parentPx := DefaultFontSize
	if parentStyle != nil {
		if v, ok := ParseLength(parentStyle.Get("font-size", ""), DefaultFontSize); ok {
			parentPx = v
		}
	}
	lower := strings.ToLower(strings.TrimSpace(fs))
	switch lower {
	case "smaller":
		out["font-size"] = formatPx(parentPx / 1.2)
		return
	case "larger":
		out["font-size"] = formatPx(parentPx * 1.2)
		return
	case "xx-small":
		out["font-size"] = formatPx(DefaultFontSize * 0.5625)
		return
	case "x-small":
		out["font-size"] = formatPx(DefaultFontSize * 0.625)
		return
	case "small":
		out["font-size"] = formatPx(DefaultFontSize * 0.8125)
		return
	case "medium":
		out["font-size"] = formatPx(DefaultFontSize)
		return
	case "large":
		out["font-size"] = formatPx(DefaultFontSize * 1.125)
		return
	case "x-large":
		out["font-size"] = formatPx(DefaultFontSize * 1.5)
		return
	case "xx-large":
		out["font-size"] = formatPx(DefaultFontSize * 2)
		return
	}
	if strings.HasSuffix(lower, "em") || strings.HasSuffix(lower, "%") {
		if v, ok := ParseLength(lower, parentPx); ok {
			out["font-size"] = formatPx(v)
		}
	}
}

func formatPx(v float64) string {
	// Render with limited precision; layout does not need sub-1/100px.
	i := int(v*100 + 0.5)
	whole, frac := i/100, i%100
	if frac == 0 {
		return itoa(whole) + "px"
	}
	if frac%10 == 0 {
		return itoa(whole) + "." + itoa(frac/10) + "px"
	}
	fs := itoa(frac)
	if frac < 10 {
		fs = "0" + fs
	}
	return itoa(whole) + "." + fs + "px"
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	neg := v < 0
	if neg {
		v = -v
	}
	var buf [16]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}
