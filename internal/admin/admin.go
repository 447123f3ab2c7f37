// Package admin is the headless analog of m.Site's visual administrator
// tool (§3.1): it loads a live page, enumerates the selectable objects
// with their rendered coordinates (the "point and click" inventory, plus
// the separate dock of non-visual objects — CSS, scripts, head content),
// detects intra-page dependencies for subpage extraction, and turns them
// into the dependency objects of an adaptation spec. The spec itself is
// a spec.Spec value or its JSON, which the generator and proxy consume.
package admin

import (
	"fmt"
	"sort"
	"strings"

	"msite/internal/attr"
	"msite/internal/css"
	"msite/internal/dom"
	"msite/internal/html"
	"msite/internal/layout"
	"msite/internal/spec"
)

// ObjectInfo describes one selectable page object.
type ObjectInfo struct {
	// Tag and ID identify the element; Classes lists its class names.
	Tag     string
	ID      string
	Classes []string
	// Selector is the suggested CSS selector for the spec.
	Selector string
	// XPath is the exact location path.
	XPath string
	// Region is the rendered rectangle; zero for non-visual objects.
	Region attr.Region
	// NonVisual marks dock objects (style, script, meta, head content).
	NonVisual bool
	// TextPreview is the first few words of content.
	TextPreview string
}

// Inspect renders a page and returns its selectable objects: every
// element with an id, plus structural containers (forms, tables, divs
// with classes), plus the non-visual dock.
func Inspect(src string, width int) []ObjectInfo {
	doc := html.Tidy(src)
	styler := css.StylerForDocument(doc)
	res := layout.Layout(doc, styler, layout.Viewport{Width: width})

	var out []ObjectInfo
	doc.Walk(func(n *dom.Node) bool {
		if n.Type != dom.ElementNode {
			return true
		}
		nonVisual := isNonVisual(n)
		if !selectable(n, nonVisual) {
			return true
		}
		info := ObjectInfo{
			Tag:       n.Tag,
			ID:        n.ID(),
			Classes:   n.Classes(),
			Selector:  suggestSelector(n),
			XPath:     n.Path(),
			NonVisual: nonVisual,
		}
		if x, y, w, h, ok := res.Region(n); ok && !nonVisual {
			info.Region = attr.Region{X: x, Y: y, W: w, H: h}
		}
		info.TextPreview = preview(n)
		out = append(out, info)
		return true
	})
	return out
}

func isNonVisual(n *dom.Node) bool {
	switch n.Tag {
	case "style", "script", "meta", "link", "title", "base":
		return true
	}
	return false
}

func selectable(n *dom.Node, nonVisual bool) bool {
	if nonVisual {
		return true
	}
	if n.ID() != "" {
		return true
	}
	switch n.Tag {
	case "form", "table":
		return true
	case "div", "ul", "section", "nav":
		return len(n.Classes()) > 0
	}
	return false
}

// suggestSelector prefers #id, then tag.class chains, then the XPath.
func suggestSelector(n *dom.Node) string {
	if id := n.ID(); id != "" {
		return "#" + id
	}
	if classes := n.Classes(); len(classes) > 0 {
		return n.Tag + "." + strings.Join(classes, ".")
	}
	return ""
}

func preview(n *dom.Node) string {
	words := strings.Fields(n.Text())
	if len(words) > 8 {
		words = words[:8]
	}
	return strings.Join(words, " ")
}

// DetectDependencies finds the non-visual objects a fragment depends on:
// style elements whose rules select into the fragment and scripts whose
// source references the fragment's ids or function calls found in its
// inline handlers. This is the intra-page dependency identification of
// §3.1 ("objects may have intra-page dependencies ... identified in the
// visual tool").
func DetectDependencies(doc *dom.Node, selector string) ([]string, error) {
	sels, err := css.ParseSelectorList(selector)
	if err != nil {
		return nil, fmt.Errorf("admin: %w", err)
	}
	var roots []*dom.Node
	for _, sel := range sels {
		roots = append(roots, sel.QueryAll(doc)...)
	}
	if len(roots) == 0 {
		return nil, fmt.Errorf("admin: selector %q matched nothing", selector)
	}

	// Vocabulary referenced by the fragment: ids, classes, tags, and
	// identifiers invoked from inline handlers.
	idents := make(map[string]bool)
	for _, root := range roots {
		root.Walk(func(n *dom.Node) bool {
			if n.Type != dom.ElementNode {
				return true
			}
			if id := n.ID(); id != "" {
				idents["#"+id] = true
			}
			for _, c := range n.Classes() {
				idents["."+c] = true
			}
			for _, a := range n.Attrs {
				if strings.HasPrefix(a.Key, "on") {
					for _, fn := range jsCalls(a.Val) {
						idents["fn:"+fn] = true
					}
				}
			}
			return true
		})
	}

	var deps []string
	seen := make(map[string]bool)
	add := func(path string) {
		if !seen[path] {
			seen[path] = true
			deps = append(deps, path)
		}
	}
	for _, styleEl := range doc.Elements("style") {
		if styleMatches(styleEl, idents) {
			add(styleEl.Path())
		}
	}
	for _, scriptEl := range doc.Elements("script") {
		if scriptMatches(scriptEl, idents) {
			add(scriptEl.Path())
		}
	}
	sort.Strings(deps)
	return deps, nil
}

func styleMatches(styleEl *dom.Node, idents map[string]bool) bool {
	text := css.StyleSource(styleEl)
	for ident := range idents {
		if strings.HasPrefix(ident, "#") || strings.HasPrefix(ident, ".") {
			if strings.Contains(text, ident) {
				return true
			}
		}
	}
	return false
}

func scriptMatches(scriptEl *dom.Node, idents map[string]bool) bool {
	if scriptEl.HasAttr("src") {
		return false // external scripts resolve by URL, not content
	}
	text := css.StyleSource(scriptEl)
	for ident := range idents {
		switch {
		case strings.HasPrefix(ident, "fn:"):
			if strings.Contains(text, "function "+ident[3:]) {
				return true
			}
		case strings.HasPrefix(ident, "#"):
			if strings.Contains(text, "'"+ident[1:]+"'") ||
				strings.Contains(text, `"`+ident[1:]+`"`) ||
				strings.Contains(text, "'"+ident+"'") ||
				strings.Contains(text, `"`+ident+`"`) {
				return true
			}
		}
	}
	return false
}

// AutoDependencies returns one dependency object for each style and
// script DetectDependencies finds on doc for a subpage object of sp
// selected by CSS selector — the visual tool's one-click "satisfy
// intra-page dependencies" action (§3.1). Append them to sp.Objects.
// Subpage objects that match nothing on this page are skipped, not
// fatal: the spec may cover content that appears later.
func AutoDependencies(sp *spec.Spec, doc *dom.Node) []spec.Object {
	var deps []spec.Object
	for _, obj := range sp.Objects {
		if !obj.HasAttr(spec.AttrSubpage) || obj.Selector == "" {
			continue
		}
		paths, err := DetectDependencies(doc, obj.Selector)
		if err != nil {
			continue
		}
		for _, p := range paths {
			deps = append(deps, spec.Object{
				Name:  fmt.Sprintf("dep_%s_%d", obj.Name, len(deps)),
				XPath: p,
				Attributes: []spec.Attribute{{
					Type: spec.AttrDependency, Params: map[string]string{"subpage": obj.Name},
				}},
			})
		}
	}
	return deps
}

// jsCalls extracts called identifiers from an inline handler body.
func jsCalls(code string) []string {
	var out []string
	i := 0
	for i < len(code) {
		if !isIdentStart(code[i]) {
			i++
			continue
		}
		start := i
		for i < len(code) && isIdentChar(code[i]) {
			i++
		}
		j := i
		for j < len(code) && code[j] == ' ' {
			j++
		}
		if j < len(code) && code[j] == '(' {
			out = append(out, code[start:i])
		}
	}
	return out
}

func isIdentStart(c byte) bool {
	return c == '_' || c == '$' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isIdentChar(c byte) bool {
	return isIdentStart(c) || (c >= '0' && c <= '9')
}
