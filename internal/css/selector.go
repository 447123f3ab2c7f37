package css

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"msite/internal/dom"
)

// Combinator relates two compound selectors in a complex selector.
type Combinator int

// Combinators, in CSS notation: ' ', '>', '+', '~'.
const (
	Descendant Combinator = iota + 1
	Child
	Adjacent
	Sibling
)

// Selector is a parsed complex selector (one comma-free selector). Match
// evaluates it right-to-left against a candidate element.
type Selector struct {
	// parts[0] is the key (rightmost) compound; combs[i] relates parts[i]
	// (on the right) to parts[i+1] (on the left).
	parts []compound
	combs []Combinator
	spec  int
	raw   string
	// userState says the selector asks for a state a user puts an element
	// in or takes it out of (see MayMatch).
	userState bool
	// inline backs parts and combs while a selector has at most two
	// compounds, as most do, so they need no allocation of their own. A
	// Selector is therefore not copied: a copy's parts would still be
	// the original's.
	inline      [2]compound
	inlineCombs [1]Combinator
}

// String returns the original selector text.
func (s *Selector) String() string { return s.raw }

// Specificity returns the selector's cascade specificity encoded as
// a*1_000_000 + b*1_000 + c (ids, classes/attrs/pseudos, types).
func (s *Selector) Specificity() int { return s.spec }

type compound struct {
	tag     string // "" or "*" matches any
	id      string
	classes []string
	attrs   []attrMatcher
	pseudos []pseudoMatcher
}

type attrMatcher struct {
	key string
	op  string // "", "=", "~=", "^=", "$=", "*=", "|="
	val string
}

type pseudoMatcher struct {
	name string
	arg  string
	// sub is the parsed argument of :not().
	sub *Selector
	// a, b for :nth-child(an+b).
	a, b int
}

// ErrEmptySelector is returned when a selector string contains no simple
// selectors.
var ErrEmptySelector = errors.New("css: empty selector")

// ParseSelectorList parses a comma-separated selector list.
func ParseSelectorList(src string) ([]*Selector, error) {
	n := 0
	for range topLevelParts(src, ',') {
		n++
	}
	if n == 0 {
		return nil, ErrEmptySelector
	}
	sels, out := make([]Selector, n), make([]*Selector, n)
	classes := classSlab(src)
	i := 0
	for part := range topLevelParts(src, ',') {
		if err := sels[i].parse(part, &classes); err != nil {
			return nil, err
		}
		out[i] = &sels[i]
		i++
	}
	return out, nil
}

// ParseSelector parses a single complex selector.
func ParseSelector(src string) (*Selector, error) {
	sel := new(Selector)
	classes := classSlab(src)
	if err := sel.parse(src, &classes); err != nil {
		return nil, err
	}
	return sel, nil
}

// classSlab returns a slab for the class lists of the selectors in src,
// a selector or a whole sheet, sized by its '.' count: every class name
// takes one.
func classSlab(src string) dom.Slab[string] {
	return dom.Slab[string]{Chunk: strings.Count(src, ".")}
}

// parse parses the complex selector src into s, cutting its compounds'
// class lists from classes.
func (s *Selector) parse(src string, classes *dom.Slab[string]) error {
	// The parser holds the slab itself, not a pointer to it: what it
	// holds leaks to the heap with src, which would take the slab along.
	p := selParser{src: strings.TrimSpace(src), classes: *classes}
	err := p.parse(s)
	*classes = p.classes
	if err != nil {
		return fmt.Errorf("css: parsing selector %q: %w", src, err)
	}
	s.raw = p.src
	return nil
}

// MustSelector is ParseSelector for known-good selectors in tests and
// internal tables; it panics on error.
func MustSelector(src string) *Selector {
	sel, err := ParseSelector(src)
	if err != nil {
		panic(err)
	}
	return sel
}

type selParser struct {
	src string
	pos int
	// classes is the slab class lists are cut from.
	classes dom.Slab[string]
}

func (p *selParser) parse(sel *Selector) error {
	parts, combs := sel.inline[:0], sel.inlineCombs[:0]
	comp, err := p.parseCompound()
	if err != nil {
		return err
	}
	parts = append(parts, comp)
	for {
		comb, ok := p.parseCombinator()
		if !ok {
			break
		}
		next, err := p.parseCompound()
		if err != nil {
			return err
		}
		parts = append(parts, next)
		combs = append(combs, comb)
	}
	if p.pos < len(p.src) {
		return fmt.Errorf("unexpected %q at offset %d", p.src[p.pos], p.pos)
	}
	// Reverse to right-to-left order for matching.
	for i, j := 0, len(parts)-1; i < j; i, j = i+1, j-1 {
		parts[i], parts[j] = parts[j], parts[i]
	}
	for i, j := 0, len(combs)-1; i < j; i, j = i+1, j-1 {
		combs[i], combs[j] = combs[j], combs[i]
	}
	sel.parts, sel.combs = parts, combs
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
	return nil
}

func (p *selParser) parseCombinator() (Combinator, bool) {
	sawSpace := false
	for p.pos < len(p.src) && p.src[p.pos] == ' ' {
		sawSpace = true
		p.pos++
	}
	if p.pos >= len(p.src) {
		return 0, false
	}
	switch p.src[p.pos] {
	case '>':
		p.pos++
		p.skipSpace()
		return Child, true
	case '+':
		p.pos++
		p.skipSpace()
		return Adjacent, true
	case '~':
		p.pos++
		p.skipSpace()
		return Sibling, true
	}
	if sawSpace {
		return Descendant, true
	}
	return 0, false
}

func (p *selParser) skipSpace() {
	for p.pos < len(p.src) && p.src[p.pos] == ' ' {
		p.pos++
	}
}

func (p *selParser) parseCompound() (c compound, err error) {
	start := p.pos
scan:
	for p.pos < len(p.src) && err == nil {
		ch := p.src[p.pos]
		switch {
		case ch == '*':
			c.tag = "*"
			p.pos++
		case isIdentStart(ch) && p.pos == start:
			c.tag = strings.ToLower(p.parseIdent())
		case ch == '#':
			p.pos++
			c.id = p.parseIdent()
		case ch == '.':
			p.pos++
			p.classes.Add(p.parseIdent())
		case ch == '[':
			var am attrMatcher
			if am, err = p.parseAttr(); err == nil {
				c.attrs = append(c.attrs, am)
			}
		case ch == ':':
			var pm pseudoMatcher
			if pm, err = p.parsePseudo(); err == nil {
				c.pseudos = append(c.pseudos, pm)
			}
		default:
			break scan
		}
	}
	// Closed on every path, so the next compound's window starts empty.
	c.classes = p.classes.Cut()
	if err == nil && p.pos == start {
		err = ErrEmptySelector
	}
	return c, err
}

func isIdentStart(c byte) bool {
	return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' || c == '-'
}

func isIdentChar(c byte) bool {
	return isIdentStart(c) || (c >= '0' && c <= '9')
}

func (p *selParser) parseIdent() string {
	start := p.pos
	for p.pos < len(p.src) && isIdentChar(p.src[p.pos]) {
		p.pos++
	}
	return p.src[start:p.pos]
}

func (p *selParser) parseAttr() (attrMatcher, error) {
	p.pos++ // '['
	p.skipSpace()
	var m attrMatcher
	m.key = strings.ToLower(p.parseIdent())
	if m.key == "" {
		return m, errors.New("attribute selector missing name")
	}
	p.skipSpace()
	if p.pos < len(p.src) && p.src[p.pos] == ']' {
		p.pos++
		return m, nil
	}
	// Operator.
	for _, op := range []string{"~=", "^=", "$=", "*=", "|=", "="} {
		if strings.HasPrefix(p.src[p.pos:], op) {
			m.op = op
			p.pos += len(op)
			break
		}
	}
	if m.op == "" {
		return m, fmt.Errorf("bad attribute operator at %d", p.pos)
	}
	p.skipSpace()
	// Value: quoted or bare ident.
	if p.pos < len(p.src) && (p.src[p.pos] == '"' || p.src[p.pos] == '\'') {
		quote := p.src[p.pos]
		p.pos++
		start := p.pos
		for p.pos < len(p.src) && p.src[p.pos] != quote {
			p.pos++
		}
		m.val = p.src[start:p.pos]
		if p.pos < len(p.src) {
			p.pos++
		}
	} else {
		start := p.pos
		for p.pos < len(p.src) && p.src[p.pos] != ']' && p.src[p.pos] != ' ' {
			p.pos++
		}
		m.val = p.src[start:p.pos]
	}
	p.skipSpace()
	if p.pos >= len(p.src) || p.src[p.pos] != ']' {
		return m, errors.New("unterminated attribute selector")
	}
	p.pos++
	return m, nil
}

func (p *selParser) parsePseudo() (pseudoMatcher, error) {
	p.pos++ // ':'
	if p.pos < len(p.src) && p.src[p.pos] == ':' {
		p.pos++ // '::' pseudo-elements tolerated, treated as pseudo-class
	}
	var m pseudoMatcher
	m.name = strings.ToLower(p.parseIdent())
	if m.name == "" {
		return m, errors.New("empty pseudo-class")
	}
	if p.pos < len(p.src) && p.src[p.pos] == '(' {
		depth := 1
		p.pos++
		start := p.pos
		for p.pos < len(p.src) && depth > 0 {
			switch p.src[p.pos] {
			case '(':
				depth++
			case ')':
				depth--
			}
			p.pos++
		}
		if depth != 0 {
			return m, errors.New("unterminated pseudo-class argument")
		}
		m.arg = strings.TrimSpace(p.src[start : p.pos-1])
	}
	switch m.name {
	case "not":
		sub, err := ParseSelector(m.arg)
		if err != nil {
			return m, fmt.Errorf(":not(%s): %w", m.arg, err)
		}
		m.sub = sub
	case "nth-child", "nth-of-type", "nth-last-child":
		a, b, err := parseNth(m.arg)
		if err != nil {
			return m, err
		}
		m.a, m.b = a, b
	case "contains":
		m.arg = strings.Trim(m.arg, `"'`)
	case "first-child", "last-child", "only-child", "empty", "root",
		"first-of-type", "last-of-type", "checked", "disabled", "enabled",
		"link", "visited", "hover", "active", "focus":
		// no argument
	default:
		return m, fmt.Errorf("unsupported pseudo-class :%s", m.name)
	}
	return m, nil
}

// parseNth parses the An+B microsyntax: "odd", "even", "3", "2n", "2n+1",
// "-n+3".
func parseNth(s string) (a, b int, err error) {
	s = strings.ReplaceAll(strings.ToLower(strings.TrimSpace(s)), " ", "")
	switch s {
	case "odd":
		return 2, 1, nil
	case "even":
		return 2, 0, nil
	case "":
		return 0, 0, errors.New("empty nth argument")
	}
	nIdx := strings.IndexByte(s, 'n')
	if nIdx < 0 {
		b, err = strconv.Atoi(s)
		return 0, b, err
	}
	aStr := s[:nIdx]
	switch aStr {
	case "", "+":
		a = 1
	case "-":
		a = -1
	default:
		a, err = strconv.Atoi(aStr)
		if err != nil {
			return 0, 0, fmt.Errorf("bad nth coefficient %q", aStr)
		}
	}
	bStr := s[nIdx+1:]
	if bStr != "" {
		b, err = strconv.Atoi(bStr)
		if err != nil {
			return 0, 0, fmt.Errorf("bad nth offset %q", bStr)
		}
	}
	return a, b, nil
}

func computeSpecificity(parts []compound) int {
	var a, b, c int
	for _, comp := range parts {
		if comp.id != "" {
			a++
		}
		b += len(comp.classes) + len(comp.attrs)
		for _, ps := range comp.pseudos {
			if ps.name == "not" && ps.sub != nil {
				sub := ps.sub.spec
				a += sub / 1_000_000
				b += (sub / 1_000) % 1_000
				c += sub % 1_000
				continue
			}
			b++
		}
		if comp.tag != "" && comp.tag != "*" {
			c++
		}
	}
	return a*1_000_000 + b*1_000 + c
}

// Match reports whether n satisfies the selector as the server sees the
// document: no element is hovered, focused, active or a link.
func (s *Selector) Match(n *dom.Node) bool {
	if n == nil || n.Type != dom.ElementNode {
		return false
	}
	return s.matchFrom(0, n, false)
}

// MayMatch reports whether n can satisfy the selector on a device
// without the document changing: Match with the states a user puts an
// element in (:hover, :focus, :active, :link, :visited, :checked) taken
// to hold wherever the selector asks for them.
func (s *Selector) MayMatch(n *dom.Node) bool {
	if n == nil || n.Type != dom.ElementNode {
		return false
	}
	return s.matchFrom(0, n, true)
}

// matchFrom matches parts[idx:] leftwards from n; user says what a
// user-driven state is taken to be.
func (s *Selector) matchFrom(idx int, n *dom.Node, user bool) bool {
	if !matchCompound(&s.parts[idx], n, user) {
		return false
	}
	if idx == len(s.parts)-1 {
		return true
	}
	comb := s.combs[idx]
	switch comb {
	case Child:
		p := n.Parent
		if p == nil || p.Type != dom.ElementNode {
			return false
		}
		return s.matchFrom(idx+1, p, user)
	case Descendant:
		for p := n.Parent; p != nil && p.Type == dom.ElementNode; p = p.Parent {
			if s.matchFrom(idx+1, p, user) {
				return true
			}
		}
		return false
	case Adjacent:
		return s.matchFrom(idx+1, n.PrevElement(), user)
	case Sibling:
		for p := n.PrevElement(); p != nil; p = p.PrevElement() {
			if s.matchFrom(idx+1, p, user) {
				return true
			}
		}
		return false
	}
	return false
}

func matchCompound(c *compound, n *dom.Node, user bool) bool {
	if n == nil || n.Type != dom.ElementNode {
		return false
	}
	if c.tag != "" && c.tag != "*" && n.Tag != c.tag {
		return false
	}
	if c.id != "" {
		if id, _ := attrOf(n, "id"); id != c.id {
			return false
		}
	}
	if len(c.classes) > 0 {
		class, _ := attrOf(n, "class")
		for _, cls := range c.classes {
			if !hasField(class, cls) {
				return false
			}
		}
	}
	for i := range c.attrs {
		if !matchAttr(&c.attrs[i], n) {
			return false
		}
	}
	for i := range c.pseudos {
		if !matchPseudo(&c.pseudos[i], n, user) {
			return false
		}
	}
	return true
}

// attrOf is Node.Attr for a key that is already lowercase, as every key
// the matcher asks for is: the parser and SetAttr store keys lowercased,
// so it need not lower the key again on every test.
func attrOf(n *dom.Node, key string) (string, bool) {
	for i := range n.Attrs {
		if n.Attrs[i].Key == key {
			return n.Attrs[i].Val, true
		}
	}
	return "", false
}

// hasField reports whether the whitespace-separated list s holds f, as
// Node.HasClass does of the class attribute.
func hasField(s, f string) bool {
	for have := range strings.FieldsSeq(s) {
		if have == f {
			return true
		}
	}
	return false
}

func matchAttr(m *attrMatcher, n *dom.Node) bool {
	val, ok := attrOf(n, m.key)
	if !ok {
		return false
	}
	switch m.op {
	case "":
		return true
	case "=":
		return val == m.val
	case "~=":
		return hasField(val, m.val)
	case "^=":
		return m.val != "" && strings.HasPrefix(val, m.val)
	case "$=":
		return m.val != "" && strings.HasSuffix(val, m.val)
	case "*=":
		return m.val != "" && strings.Contains(val, m.val)
	case "|=":
		return val == m.val || strings.HasPrefix(val, m.val+"-")
	}
	return false
}

func matchPseudo(m *pseudoMatcher, n *dom.Node, user bool) bool {
	switch m.name {
	case "first-child":
		return n.PrevElement() == nil && n.Parent != nil
	case "last-child":
		return n.NextElement() == nil && n.Parent != nil
	case "only-child":
		return n.Parent != nil && n.PrevElement() == nil && n.NextElement() == nil
	case "empty":
		for c := n.FirstChild; c != nil; c = c.NextSibling {
			if c.Type == dom.ElementNode || (c.Type == dom.TextNode && c.Data != "") {
				return false
			}
		}
		return true
	case "root":
		return n.Parent != nil && n.Parent.Type == dom.DocumentNode
	case "first-of-type":
		for s := n.PrevElement(); s != nil; s = s.PrevElement() {
			if s.Tag == n.Tag {
				return false
			}
		}
		return true
	case "last-of-type":
		for s := n.NextElement(); s != nil; s = s.NextElement() {
			if s.Tag == n.Tag {
				return false
			}
		}
		return true
	case "nth-child":
		return matchNth(m.a, m.b, nthIndex(n))
	case "nth-last-child":
		return matchNth(m.a, m.b, nthLastIndex(n))
	case "nth-of-type":
		return matchNth(m.a, m.b, nthOfTypeIndex(n))
	case "not":
		// :not asks that its argument can fail, which one that needs a
		// user state always can.
		return m.sub != nil && (user && m.sub.userState || !m.sub.Match(n))
	case "contains":
		return strings.Contains(n.Text(), m.arg)
	case "checked":
		return user || n.HasAttr("checked")
	case "disabled":
		return n.HasAttr("disabled")
	case "enabled":
		return !n.HasAttr("disabled")
	case "link", "visited", "hover", "active", "focus":
		// Dynamic states never hold in a server-side DOM.
		return user
	}
	return false
}

func nthIndex(n *dom.Node) int {
	i := 1
	for s := n.PrevElement(); s != nil; s = s.PrevElement() {
		i++
	}
	return i
}

func nthLastIndex(n *dom.Node) int {
	i := 1
	for s := n.NextElement(); s != nil; s = s.NextElement() {
		i++
	}
	return i
}

func nthOfTypeIndex(n *dom.Node) int {
	i := 1
	for s := n.PrevElement(); s != nil; s = s.PrevElement() {
		if s.Tag == n.Tag {
			i++
		}
	}
	return i
}

// matchNth reports whether index (1-based) is expressible as a*k+b for
// some non-negative integer k.
func matchNth(a, b, index int) bool {
	if a == 0 {
		return index == b
	}
	d := index - b
	if d%a != 0 {
		return false
	}
	return d/a >= 0
}

// QueryAll returns every element in root's subtree (including root)
// matching the selector, in document order.
func (s *Selector) QueryAll(root *dom.Node) []*dom.Node {
	var out []*dom.Node
	root.Walk(func(n *dom.Node) bool {
		if s.Match(n) {
			out = append(out, n)
		}
		return true
	})
	return out
}

// Select parses a selector list and returns the elements in root's
// subtree (including root) matching any selector of it, each once, in
// document order.
func Select(root *dom.Node, selector string) ([]*dom.Node, error) {
	sels, err := ParseSelectorList(selector)
	if err != nil {
		return nil, err
	}
	var nodes []*dom.Node
	for _, sel := range sels {
		nodes = append(nodes, sel.QueryAll(root)...)
	}
	return dom.SortNodes(root, nodes), nil
}

// Query returns the first element in root's subtree matching the selector,
// or nil.
func (s *Selector) Query(root *dom.Node) *dom.Node {
	var found *dom.Node
	root.Walk(func(n *dom.Node) bool {
		if found != nil {
			return false
		}
		if s.Match(n) {
			found = n
			return false
		}
		return true
	})
	return found
}
