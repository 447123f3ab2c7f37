// Package quality asserts that adaptations are *correct*, not just
// fast. It contributes two passes that run over the adapted DOM:
//
//   - a declarative mobile-repair rule pass (rules.go) encoding the
//     classic mobile-adapt checklist — viewport meta injection,
//     fixed-width overflow rewrites, touch-target minimum sizing, and a
//     font-size floor — run over the whole page by internal/proxy or
//     over one object's subtree by the spec's "repair" attribute, which
//     internal/attr applies;
//   - a content-parity validator (parity.go) that inventories text
//     blocks, links, and form controls in the origin DOM versus the
//     adapted entry+subpage closure and scores how much content the
//     adaptation retained.
//
// Both are wired through internal/proxy as a post-attr hook.
package quality

import (
	"fmt"
	"strconv"
	"strings"

	"msite/internal/dom"
)

// Rule is one declarative repair pass over a DOM subtree. Check and
// Apply must be symmetric: after Apply(root) returns, Check(root) must
// report no violations ("repairs re-lint clean").
type Rule interface {
	// Name is the stable identifier used in specs, flags, and metrics.
	Name() string
	// Check lints root without modifying it and returns one
	// human-readable violation per problem found.
	Check(root *dom.Node) []string
	// Apply repairs root in place and returns the number of repairs.
	Apply(root *dom.Node) int
}

// Tunables for the built-in rules.
const (
	// DefaultMaxFixedWidthPx is the widest absolute pixel width the
	// fixed-width rule tolerates before rewriting to a fluid width.
	DefaultMaxFixedWidthPx = 480
	// DefaultFontFloorPx is the smallest inline font size the font-floor
	// rule tolerates.
	DefaultFontFloorPx = 12
	// DefaultTouchTargetPx is the minimum tap-target edge the
	// touch-target rule enforces.
	DefaultTouchTargetPx = 44
	// ViewportContent is the meta viewport content the viewport rule
	// injects.
	ViewportContent = "width=device-width, initial-scale=1"
	// RepairMarkerAttr marks elements the repair pass injected, so rules
	// can recognize their own work and re-lint clean.
	RepairMarkerAttr = "data-msite-repair"
)

// AllRules returns a fresh instance of every built-in rule, in the
// order they should run (viewport first: later rules may synthesize
// markup into the head it ensures).
func AllRules() []Rule {
	return []Rule{
		viewportRule{},
		fixedWidthRule{},
		touchTargetRule{},
		fontFloorRule{},
	}
}

// RuleNames returns the names of every built-in rule in run order.
func RuleNames() []string {
	rules := AllRules()
	names := make([]string, len(rules))
	for i, r := range rules {
		names[i] = r.Name()
	}
	return names
}

// RuleByName returns the built-in rule with the given name.
func RuleByName(name string) (Rule, error) {
	for _, r := range AllRules() {
		if r.Name() == name {
			return r, nil
		}
	}
	return nil, fmt.Errorf("quality: unknown repair rule %q (known: %s)",
		name, strings.Join(RuleNames(), ", "))
}

// ParseRules resolves a comma-separated rule list. "all" (or "") means
// every built-in rule; unknown names are an error.
func ParseRules(list string) ([]Rule, error) {
	list = strings.TrimSpace(list)
	if list == "" || list == "all" {
		return AllRules(), nil
	}
	var rules []Rule
	for _, name := range strings.Split(list, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		r, err := RuleByName(name)
		if err != nil {
			return nil, err
		}
		rules = append(rules, r)
	}
	return rules, nil
}

// CheckAll lints root with every rule and returns the violations, each
// prefixed with its rule name.
func CheckAll(rules []Rule, root *dom.Node) []string {
	var out []string
	for _, r := range rules {
		for _, v := range r.Check(root) {
			out = append(out, r.Name()+": "+v)
		}
	}
	return out
}

// Repair is one rule's fix count.
type Repair struct {
	Rule string
	N    int
}

// RepairAll applies every rule to root and returns the repairs made, in
// the rules' order (rules that made no repairs are omitted), so notes
// built from them read the same from build to build.
func RepairAll(rules []Rule, root *dom.Node) []Repair {
	var out []Repair
	for _, r := range rules {
		if n := r.Apply(root); n > 0 {
			out = append(out, Repair{r.Name(), n})
		}
	}
	return out
}

// ---------------------------------------------------------------- viewport

// viewportRule ensures the document carries a device-width viewport
// meta — without it, mobile browsers render at a fake desktop width and
// scale down.
type viewportRule struct{}

func (viewportRule) Name() string { return "viewport" }

func findViewportMeta(root *dom.Node) *dom.Node {
	return root.Root().FindFirst(func(d *dom.Node) bool {
		return d.Type == dom.ElementNode && d.Tag == "meta" &&
			strings.EqualFold(d.AttrOr("name", ""), "viewport")
	})
}

func (viewportRule) Check(root *dom.Node) []string {
	if root.Root().DocumentElement() == nil {
		return nil // fragment: nowhere for a head to live
	}
	m := findViewportMeta(root)
	if m == nil {
		return []string{"missing <meta name=viewport>"}
	}
	if !strings.Contains(m.AttrOr("content", ""), "width=device-width") {
		return []string{fmt.Sprintf("viewport content %q does not fit device width",
			m.AttrOr("content", ""))}
	}
	return nil
}

func (viewportRule) Apply(root *dom.Node) int {
	docEl := root.Root().DocumentElement()
	if docEl == nil {
		return 0
	}
	if m := findViewportMeta(root); m != nil {
		if strings.Contains(m.AttrOr("content", ""), "width=device-width") {
			return 0
		}
		m.SetAttr("content", ViewportContent)
		return 1
	}
	head := root.Head()
	if head == nil {
		head = dom.NewElement("head")
		docEl.PrependChild(head)
	}
	meta := dom.NewElement("meta")
	meta.SetAttr("name", "viewport")
	meta.SetAttr("content", ViewportContent)
	head.AppendChild(meta)
	return 1
}

// ------------------------------------------------------------- fixed-width

// fixedWidthRule rewrites absolute pixel widths wider than the mobile
// viewport into fluid widths so the page stops overflowing sideways.
type fixedWidthRule struct {
	// MaxPx overrides DefaultMaxFixedWidthPx when > 0.
	MaxPx float64
}

func (fixedWidthRule) Name() string { return "fixed-width" }

func (r fixedWidthRule) max() float64 {
	if r.MaxPx > 0 {
		return r.MaxPx
	}
	return DefaultMaxFixedWidthPx
}

// scan is the shared Check/Apply walk; fix selects repair mode.
func (r fixedWidthRule) scan(root *dom.Node, fix bool) (viols []string, count int) {
	limit := r.max()
	root.Walk(func(n *dom.Node) bool {
		if n.Type != dom.ElementNode {
			return true
		}
		attrPx, attrOver := pxValue(n.AttrOr("width", ""))
		stylePx, styleOver := pxValue(styleProp(n, "width"))
		attrOver = attrOver && attrPx > limit
		styleOver = styleOver && stylePx > limit
		if !attrOver && !styleOver {
			return true
		}
		over := attrPx
		if stylePx > over {
			over = stylePx
		}
		if !fix {
			viols = append(viols, fmt.Sprintf("<%s> fixed width %.0fpx exceeds %.0fpx",
				n.Tag, over, limit))
			return true
		}
		if n.Tag == "img" {
			// Images keep their aspect ratio and shrink to the container.
			n.DelAttr("width")
			n.DelAttr("height")
			if styleOver {
				setStyleProp(n, "width", "100%")
			}
			setStyleProp(n, "max-width", "100%")
			setStyleProp(n, "height", "auto")
		} else {
			if attrOver {
				n.DelAttr("width")
			}
			setStyleProp(n, "width", "100%")
			setStyleProp(n, "max-width", fmt.Sprintf("%.0fpx", over))
		}
		count++
		return true
	})
	return viols, count
}

func (r fixedWidthRule) Check(root *dom.Node) []string {
	viols, _ := r.scan(root, false)
	return viols
}

func (r fixedWidthRule) Apply(root *dom.Node) int {
	_, count := r.scan(root, true)
	return count
}

// ------------------------------------------------------------ touch-target

// touchTargetRule injects a stylesheet that gives links, buttons, and
// form controls a minimum tap-target size, once per document that
// contains interactive elements.
type touchTargetRule struct {
	// MinPx overrides DefaultTouchTargetPx when > 0.
	MinPx int
}

func (touchTargetRule) Name() string { return "touch-target" }

func (r touchTargetRule) min() int {
	if r.MinPx > 0 {
		return r.MinPx
	}
	return DefaultTouchTargetPx
}

func interactiveCount(root *dom.Node) int {
	count := 0
	root.Root().Walk(func(n *dom.Node) bool {
		if n.Type != dom.ElementNode {
			return true
		}
		switch n.Tag {
		case "a":
			if n.AttrOr("href", "") != "" {
				count++
			}
		case "button", "select", "textarea":
			count++
		case "input":
			if !strings.EqualFold(n.AttrOr("type", "text"), "hidden") {
				count++
			}
		}
		return true
	})
	return count
}

func findTouchMarker(root *dom.Node) *dom.Node {
	return root.Root().FindFirst(func(d *dom.Node) bool {
		return d.Type == dom.ElementNode && d.Tag == "style" &&
			d.AttrOr(RepairMarkerAttr, "") == "touch-target"
	})
}

// markerHost returns the element the injected stylesheet should live
// in: the head, else the html element, else the (element) root itself.
func markerHost(root *dom.Node) *dom.Node {
	if head := root.Head(); head != nil {
		return head
	}
	if docEl := root.Root().DocumentElement(); docEl != nil {
		return docEl
	}
	if r := root.Root(); r.Type == dom.ElementNode {
		return r
	}
	return nil
}

func (r touchTargetRule) Check(root *dom.Node) []string {
	if markerHost(root) == nil {
		return nil
	}
	n := interactiveCount(root)
	if n == 0 || findTouchMarker(root) != nil {
		return nil
	}
	return []string{fmt.Sprintf("%d interactive elements without touch-target sizing", n)}
}

func (r touchTargetRule) Apply(root *dom.Node) int {
	host := markerHost(root)
	if host == nil || interactiveCount(root) == 0 || findTouchMarker(root) != nil {
		return 0
	}
	px := strconv.Itoa(r.min())
	style := dom.NewElement("style")
	style.SetAttr(RepairMarkerAttr, "touch-target")
	style.SetText(fmt.Sprintf(
		"a, button, select, textarea, input:not([type=hidden]) "+
			"{ min-height: %spx; min-width: %spx; touch-action: manipulation; }", px, px))
	host.AppendChild(style)
	return 1
}

// -------------------------------------------------------------- font-floor

// fontFloorRule raises unreadably small inline font sizes (and legacy
// <font size=1|2>) to a readable floor.
type fontFloorRule struct {
	// FloorPx overrides DefaultFontFloorPx when > 0.
	FloorPx float64
}

func (fontFloorRule) Name() string { return "font-floor" }

func (r fontFloorRule) floor() float64 {
	if r.FloorPx > 0 {
		return r.FloorPx
	}
	return DefaultFontFloorPx
}

func (r fontFloorRule) scan(root *dom.Node, fix bool) (viols []string, count int) {
	floor := r.floor()
	root.Walk(func(n *dom.Node) bool {
		if n.Type != dom.ElementNode {
			return true
		}
		if px, ok := pxValue(styleProp(n, "font-size")); ok && px < floor {
			if fix {
				setStyleProp(n, "font-size", fmt.Sprintf("%.0fpx", floor))
				count++
			} else {
				viols = append(viols, fmt.Sprintf("<%s> font-size %.0fpx below %.0fpx floor",
					n.Tag, px, floor))
			}
		}
		if n.Tag == "font" {
			if size, err := strconv.Atoi(n.AttrOr("size", "")); err == nil && size > 0 && size <= 2 {
				if fix {
					n.SetAttr("size", "3")
					count++
				} else {
					viols = append(viols, fmt.Sprintf("<font size=%d> below readable floor", size))
				}
			}
		}
		return true
	})
	return viols, count
}

func (r fontFloorRule) Check(root *dom.Node) []string {
	viols, _ := r.scan(root, false)
	return viols
}

func (r fontFloorRule) Apply(root *dom.Node) int {
	_, count := r.scan(root, true)
	return count
}

// ------------------------------------------------------------------ style

// styleProp returns the value of a property in n's inline style, or "".
func styleProp(n *dom.Node, key string) string {
	for _, prop := range strings.Split(n.AttrOr("style", ""), ";") {
		k, v, ok := strings.Cut(prop, ":")
		if ok && strings.EqualFold(strings.TrimSpace(k), key) {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

// setStyleProp sets a property in n's inline style, replacing an
// existing declaration and preserving the others.
func setStyleProp(n *dom.Node, key, val string) {
	var props []string
	replaced := false
	for _, prop := range strings.Split(n.AttrOr("style", ""), ";") {
		k, _, ok := strings.Cut(prop, ":")
		if strings.TrimSpace(prop) == "" {
			continue
		}
		if ok && strings.EqualFold(strings.TrimSpace(k), key) {
			if !replaced {
				props = append(props, key+": "+val)
				replaced = true
			}
			continue
		}
		props = append(props, strings.TrimSpace(prop))
	}
	if !replaced {
		props = append(props, key+": "+val)
	}
	n.SetAttr("style", strings.Join(props, "; "))
}

// pxValue parses an absolute pixel measure: "728", "728px", "728.5px".
// Percentages, other units, and non-numeric values report false.
func pxValue(v string) (float64, bool) {
	v = strings.TrimSpace(strings.ToLower(v))
	v = strings.TrimSuffix(v, "px")
	if v == "" || strings.ContainsAny(v, "%a-z ") {
		return 0, false
	}
	f, err := strconv.ParseFloat(v, 64)
	if err != nil || f < 0 {
		return 0, false
	}
	return f, true
}
