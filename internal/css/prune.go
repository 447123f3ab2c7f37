package css

import (
	"strings"

	"msite/internal/dom"
)

// Prune returns the sheet's source without the rules that can style none
// of elems. A style rule stays, as written and in order, when one of its
// selectors may match one of them (Selector.MayMatch, so a :hover rule
// survives). Whatever the parser did not understand stays too — a
// selector list it rejects, an empty block, every at-rule but @media —
// since nothing shows it dead; an @media block is pruned inside and
// dropped when nothing is left in it. The one thing dropped unread is an
// @import, @charset or @namespace that follows a rule or a block: a
// browser ignores it there, and would stop ignoring it once what precedes
// it is gone. Comments do not survive: the source pruned is the source
// parsed. A sheet that ends inside a block or a string is returned whole:
// where its rules end is a matter of error recovery, the browser's.
func (s *Stylesheet) Prune(elems []*dom.Node) string {
	if s.unclosed {
		return s.src
	}
	var b strings.Builder
	s.prune(&b, s.pieces, elems, false)
	return b.String()
}

// prune writes the kept pieces to b. after says that a rule or block
// precedes them, so a leading-only statement among them is already dead.
func (s *Stylesheet) prune(b *strings.Builder, pieces []piece, elems []*dom.Node, after bool) {
	for _, p := range pieces {
		switch p.kind {
		case statementPiece:
			if !after || !leadingOnly(p.text) {
				b.WriteString(p.text)
			}
			continue // statements may precede an @import
		case rulePiece:
			if rule := &s.Rules[p.rule]; rule.mayStyle(elems) {
				b.WriteString(rule.Source)
			}
		case mediaPiece:
			var block strings.Builder
			s.prune(&block, p.block, elems, true)
			if block.Len() > 0 {
				b.WriteString(p.text)
				b.WriteByte('{')
				b.WriteString(block.String())
				b.WriteByte('}')
			}
		default:
			b.WriteString(p.text)
		}
		after = true
	}
}

// leadingOnly reports whether text is a statement at-rule that is valid
// only before every other rule of a sheet.
func leadingOnly(text string) bool {
	for _, name := range []string{"@import", "@charset", "@namespace"} {
		if len(text) >= len(name) && strings.EqualFold(text[:len(name)], name) {
			return true
		}
	}
	return false
}

// mayStyle reports whether one of the rule's selectors may match one of
// elems.
func (r *Rule) mayStyle(elems []*dom.Node) bool {
	for _, sel := range r.Selectors {
		for _, n := range elems {
			if sel.MayMatch(n) {
				return true
			}
		}
	}
	return false
}
