package css

import (
	"slices"
	"strings"

	"msite/internal/dom"
)

// span is one bucket of a ruleIndex: entries[start:end].
type span struct{ start, end int32 }

// ruleKey is what a rightmost compound is filed under: its id ('#'),
// else its first class ('.'), else its tag (0).
type ruleKey struct {
	kind byte
	name string
}

// keyOf returns the key c is filed under, or false for the universal
// bucket: a compound with no id, class or tag.
func keyOf(c *compound) (ruleKey, bool) {
	switch {
	case c.id != "":
		return ruleKey{'#', c.id}, true
	case len(c.classes) > 0:
		return ruleKey{'.', c.classes[0]}, true
	case c.tag != "" && c.tag != "*":
		return ruleKey{0, c.tag}, true
	}
	return ruleKey{}, false
}

// ruleIndex is a stylesheet's rule hash, the one browser engines keep:
// each selector of each rule is filed under the key of its rightmost
// compound, which an element must carry for the selector to match it.
// An element is then offered the rules filed under its id, its classes
// and its tag, and the universal ones, not every rule. The buckets are
// spans of one slice of rule ordinals, each in source order, with a rule
// once for each of its selectors filed there.
type ruleIndex struct {
	entries   []int32
	buckets   map[ruleKey]span
	universal span
}

// newRuleIndex files the rules. It counts the selectors under each key,
// lays the buckets end to end and then files the rules in order, so that
// each bucket is a span of one slice, and the index a map and that
// slice.
func newRuleIndex(rules []Rule) ruleIndex {
	var ix ruleIndex
	n := int32(0)
	for i := range rules {
		for _, sel := range rules[i].Selectors {
			n++
			key, ok := keyOf(&sel.parts[0])
			if !ok {
				ix.universal.end++
				continue
			}
			if ix.buckets == nil {
				ix.buckets = make(map[ruleKey]span)
			}
			sp := ix.buckets[key]
			sp.end++
			ix.buckets[key] = sp
		}
	}
	if n == 0 {
		return ix
	}
	ix.entries = make([]int32, n)
	// Each bucket's end counts its selectors; it becomes the bucket's
	// start, and then, as rules are filed, where the next one goes.
	next := ix.universal.end
	ix.universal.end = 0
	for key, sp := range ix.buckets {
		ix.buckets[key] = span{start: next, end: next}
		next += sp.end
	}
	for ri := range rules {
		for _, sel := range rules[ri].Selectors {
			key, ok := keyOf(&sel.parts[0])
			sp := ix.universal
			if ok {
				sp = ix.buckets[key]
			}
			ix.entries[sp.end] = int32(ri)
			sp.end++
			if ok {
				ix.buckets[key] = sp
			} else {
				ix.universal = sp
			}
		}
	}
	return ix
}

// offer appends to cands the rules filed under id, classes and tag, and
// the universal ones, in source order. A rule is appended once for each
// of its selectors filed under those keys, the copies side by side.
func (ix *ruleIndex) offer(cands []int32, id string, classes []string, tag string) []int32 {
	buckets := 0
	add := func(sp span) {
		if sp.end > sp.start {
			cands = append(cands, ix.entries[sp.start:sp.end]...)
			buckets++
		}
	}
	if id != "" {
		add(ix.buckets[ruleKey{'#', id}])
	}
	for _, c := range classes {
		add(ix.buckets[ruleKey{'.', c}])
	}
	add(ix.buckets[ruleKey{0, tag}])
	add(ix.universal)
	if buckets > 1 {
		slices.Sort(cands)
	}
	return cands
}

// appendHits appends the rules of s's active media that match n, in
// sheet and source order, each with the best specificity among its
// selectors that matched. Each sheet offers n the rules its rule hash
// files under n's id, classes and tag, and its universal ones: no other
// rule has a selector n can match. An offered rule is tested as every
// rule once was, each of its selectors against n.
func (s *Styler) appendHits(hits []ruleHit, n *dom.Node) []ruleHit {
	s.classes = s.classes[:0]
	if class, ok := attrOf(n, "class"); ok {
		for c := range strings.FieldsSeq(class) {
			s.classes = append(s.classes, c)
		}
	}
	id, _ := attrOf(n, "id")
	for si, sheet := range s.sheets {
		cands := sheet.index.offer(s.cands[:0], id, s.classes, n.Tag)
		for i, ri := range cands {
			if i > 0 && cands[i-1] == ri {
				continue // another of its selectors is filed under n's keys
			}
			rule := &sheet.Rules[ri]
			if !s.mediaActive(rule.Media) {
				continue
			}
			best := -1
			for _, sel := range rule.Selectors {
				if sel.spec > best && sel.Match(n) {
					best = sel.spec
				}
			}
			if best >= 0 {
				hits = append(hits, ruleHit{sheet: si, rule: int(ri), spec: best})
			}
		}
		s.cands = cands
	}
	return hits
}
