// Package attr implements m.Site's attribute system (§3.3) — the heart of
// the framework. An Applier takes a fetched, parsed origin page plus the
// administrator's Spec and produces the adapted main document and its
// generated subpages: page splitting, sub-subpages, dependency pull-in,
// object insertion/removal/relocation/replacement, JavaScript
// insertion/removal, server-side pre-rendering (full and partial-CSS),
// image fidelity selection, searchable snapshots, and AJAX rewriting.
package attr

import (
	"context"
	"errors"
	"fmt"
	"image"
	"strconv"
	"strings"

	"msite/internal/ajax"
	"msite/internal/css"
	"msite/internal/dom"
	"msite/internal/html"
	"msite/internal/imaging"
	"msite/internal/layout"
	"msite/internal/progressive"
	"msite/internal/quality"
	"msite/internal/raster"
	"msite/internal/spec"
)

// Region is a pixel rectangle in the original page layout.
type Region struct {
	X, Y, W, H int
}

// Valid reports whether the region has area.
func (r Region) Valid() bool { return r.W > 0 && r.H > 0 }

// Scale returns the region multiplied by factor — the implicit coordinate
// translation for scaled-down snapshots (§4.3).
func (r Region) Scale(f float64) Region {
	return Region{
		X: int(float64(r.X) * f),
		Y: int(float64(r.Y) * f),
		W: int(float64(r.W) * f),
		H: int(float64(r.H) * f),
	}
}

// Subpage is one generated subpage.
type Subpage struct {
	// Name is the object name that produced the subpage.
	Name string
	// Title is the subpage document title.
	Title string
	// Doc is the standalone subpage document.
	Doc *dom.Node
	// Parent is the enclosing subpage for hierarchical navigation
	// (§3.3 "Sub-subpages"), or "".
	Parent string
	// Region locates the source object in the original page layout; the
	// snapshot image map links this rectangle to the subpage.
	Region Region
	// PreRender marks the subpage for server-side rendering to an image.
	PreRender bool
	// AJAX marks the subpage for asynchronous loading into the current
	// page instead of navigation (§4.3).
	AJAX bool
	// Fidelity selects the image encoding for pre-rendered output.
	Fidelity imaging.Fidelity
	// ImageData/ImageMIME hold the pre-rendered image, when PreRender or
	// PartialCSS is set.
	ImageData []byte
	ImageMIME string
	// PartialCSS marks partial pre-rendering: ImageData holds the
	// text-free background and Doc holds positioned client-side text.
	PartialCSS bool
	// SearchJS is the searchable-snapshot payload, when requested.
	SearchJS string
	// Sheets is the build's stylesheet memo (Result.Sheets), which
	// SerializeSubpage prunes through. It belongs to the build, not to the
	// subpage's description.
	Sheets *css.Sheets
}

// Asset is a standalone generated artifact (e.g. a rich-media
// thumbnail) the proxy writes into the user's image directory.
type Asset struct {
	Name string
	Data []byte
	MIME string
}

// Result is the outcome of applying a spec to one page.
type Result struct {
	// Doc is the adapted main document.
	Doc *dom.Node
	// Subpages are the generated subpages, in spec order.
	Subpages []*Subpage
	// Assets are standalone generated artifacts (thumbnails).
	Assets []Asset
	// Layout is the original page layout (pre-extraction), used for
	// snapshot geometry.
	Layout *layout.Result
	// AJAXRewrites counts rewritten asynchronous calls.
	AJAXRewrites int
	// Notes records non-fatal adaptation observations (objects that
	// matched nothing, etc.).
	Notes []string
	// Sheets holds every stylesheet the build has parsed, each once: the
	// main document and the subpages carry clones of the same <style>
	// elements, and so does the main page the snapshot is rendered from.
	Sheets *css.Sheets
}

// FindSubpage returns the named subpage.
func (r *Result) FindSubpage(name string) (*Subpage, bool) {
	for _, sp := range r.Subpages {
		if sp.Name == name {
			return sp, true
		}
	}
	return nil, false
}

// Applier applies a Spec to fetched pages.
type Applier struct {
	// ViewportWidth is the server-side rendering width (the desktop
	// width the snapshot is taken at). Zero uses the spec's value or the
	// layout default.
	ViewportWidth int
	// SubpageURL maps subpage names to the URLs the proxy serves them
	// at; nil uses "/subpage/<name>".
	SubpageURL func(name string) string
	// AssetURL maps generated asset names to URLs; nil uses
	// "/asset/<name>".
	AssetURL func(name string) string
	// AJAXEndpoint is the proxy URL rewritten asynchronous calls target;
	// empty uses ajax.DefaultEndpoint.
	AJAXEndpoint string
	// Images maps <img src> values to decoded images the renderer paints
	// in place of placeholders — the subresources the proxy downloaded
	// on the client's behalf (§3.2).
	Images map[string]image.Image
	// Ctx, when it carries an obs trace, receives the "raster" and
	// "encode" spans of the subpage pre-renders and thumbnails. Nil
	// records nothing.
	Ctx context.Context
}

func (a *Applier) subpageURL(name string) string {
	if a.SubpageURL != nil {
		return a.SubpageURL(name)
	}
	return "/subpage/" + name
}

func (a *Applier) assetURL(name string) string {
	if a.AssetURL != nil {
		return a.AssetURL(name)
	}
	return "/asset/" + name
}

// Apply runs the attribute phase over doc. The document is modified in
// place and returned inside the Result.
func (a *Applier) Apply(sp *spec.Spec, doc *dom.Node) (*Result, error) {
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	width := a.ViewportWidth
	if width == 0 {
		width = sp.ViewportWidth
	}
	res := &Result{Doc: doc, Sheets: new(css.Sheets)}

	// Original-page layout: regions must be measured before any object
	// moves.
	res.Layout = layoutDoc(doc, width, res.Sheets)

	// Pass A: locate every object.
	located := make(map[string][]*dom.Node, len(sp.Objects))
	for _, obj := range sp.Objects {
		nodes, err := obj.Locate(doc)
		if err != nil {
			return nil, fmt.Errorf("attr: object %q: %w", obj.Name, err)
		}
		if len(nodes) == 0 {
			res.Notes = append(res.Notes, fmt.Sprintf("object %q matched nothing", obj.Name))
		}
		located[obj.Name] = nodes
	}

	// Pass B: create subpage shells for every subpage attribute.
	subpages := make(map[string]*Subpage)
	for _, obj := range sp.Objects {
		attrSpec, ok := obj.Attr(spec.AttrSubpage)
		if !ok || len(located[obj.Name]) == 0 {
			continue
		}
		node := located[obj.Name][0]
		sub := &Subpage{
			Name:     obj.Name,
			Title:    attrSpec.Param("title", obj.Name),
			Parent:   attrSpec.Param("parent", ""),
			AJAX:     attrSpec.Param("ajax", "") == "true",
			Fidelity: fidelityFromName(attrSpec.Param("fidelity", "low")),
			Sheets:   res.Sheets,
		}
		if attrSpec.Param("prerender", "") == "true" || obj.HasAttr(spec.AttrPreRender) {
			sub.PreRender = true
		}
		if pr, ok := obj.Attr(spec.AttrPreRender); ok {
			sub.Fidelity = fidelityFromName(pr.Param("fidelity", "low"))
		}
		if fid, ok := obj.Attr(spec.AttrImageFidelity); ok {
			sub.Fidelity = fidelityFromName(fid.Param("fidelity", "low"))
		}
		if obj.HasAttr(spec.AttrPartialCSS) {
			sub.PartialCSS = true
		}
		if x, y, w, h, ok := res.Layout.Region(node); ok {
			sub.Region = Region{X: x, Y: y, W: w, H: h}
		}
		sub.Doc = newSubpageDoc(sub.Title)
		subpages[obj.Name] = sub
		res.Subpages = append(res.Subpages, sub)
	}

	// Pass C: dependencies and copies flow into subpages while every
	// object is still in its original position.
	for _, obj := range sp.Objects {
		for _, at := range obj.Attributes {
			switch at.Type {
			case spec.AttrDependency:
				target, ok := subpages[at.Param("subpage", "")]
				if !ok {
					continue
				}
				for _, n := range located[obj.Name] {
					target.Doc.Head().AppendChild(n.Clone())
				}
			case spec.AttrCopyTo:
				target, ok := subpages[at.Param("subpage", "")]
				if !ok {
					continue
				}
				for _, n := range located[obj.Name] {
					clone := n.Clone()
					applyCopyOverrides(clone, at)
					if at.Param("position", "top") == "bottom" {
						target.Doc.Body().AppendChild(clone)
					} else {
						target.Doc.Body().PrependChild(clone)
					}
				}
			}
		}
	}

	// Pass D: move subpage objects out of the main document, parents
	// before children so a child's node travels into its parent's
	// subpage first. When a child is then split out of a parent's
	// subpage, the parent document is laid out just before extraction so
	// the child's rectangle *within the parent page* is exact — the
	// coordinates the parent's hierarchical image map needs (§3.3
	// "Sub-subpages").
	for _, obj := range subpageObjectsTopological(sp, subpages) {
		sub := subpages[obj.Name]
		if len(located[obj.Name]) == 0 {
			continue
		}
		node := located[obj.Name][0]
		if sub.Parent != "" {
			if parent, ok := subpages[sub.Parent]; ok && parent.Doc.Contains(node) {
				parentLayout := layoutDoc(parent.Doc, width, res.Sheets)
				if x, y, w, h, ok := parentLayout.Region(node); ok {
					sub.Region = Region{X: x, Y: y, W: w, H: h}
				}
			}
		}
		node.Detach()
		// Subpage content goes after any copied-to-top material.
		sub.Doc.Body().AppendChild(node)
	}

	// Pass E: the remaining attributes, in spec order.
	var rewriter *ajax.Rewriter
	if len(sp.Actions) > 0 {
		var err error
		rewriter, err = ajax.NewRewriter(sp.Actions, a.AJAXEndpoint)
		if err != nil {
			return nil, err
		}
	}
	env := &applyEnv{res: res, subpages: subpages, rewriter: rewriter}
	for _, obj := range sp.Objects {
		nodes := located[obj.Name]
		scope := nodes
		if sub, ok := subpages[obj.Name]; ok {
			// Attributes on a subpage object operate inside its subpage.
			scope = []*dom.Node{sub.Doc.Body()}
		}
		for _, at := range obj.Attributes {
			if err := a.applyOne(env, obj, at, scope); err != nil {
				return nil, err
			}
		}
	}

	// Pass F: render subpages that asked for pixels.
	for _, sub := range res.Subpages {
		if err := a.finishSubpage(sp, sub, width); err != nil {
			return nil, err
		}
	}

	// Pass G: hierarchical navigation — pre-rendered parents get an
	// image map over their graphic linking each child subpage's region.
	for _, parent := range res.Subpages {
		if !parent.PreRender {
			continue
		}
		var children []*Subpage
		for _, child := range res.Subpages {
			if child.Parent == parent.Name && child.Region.Valid() {
				children = append(children, child)
			}
		}
		if len(children) > 0 {
			a.attachChildMap(parent, children, prerenderScale(sp))
		}
	}
	return res, nil
}

// subpageObjectsTopological orders subpage-bearing objects parents
// before children (the Parent relation is validated acyclic by depth
// bound: nesting deeper than the object count means a cycle, which the
// loop breaks by falling back to spec order).
func subpageObjectsTopological(sp *spec.Spec, subpages map[string]*Subpage) []spec.Object {
	depth := func(name string) int {
		d := 0
		for cur := name; d <= len(sp.Objects); d++ {
			sub, ok := subpages[cur]
			if !ok || sub.Parent == "" {
				return d
			}
			cur = sub.Parent
		}
		return 0 // cycle: treat as root-level
	}
	var objs []spec.Object
	for _, obj := range sp.Objects {
		if _, ok := subpages[obj.Name]; ok {
			objs = append(objs, obj)
		}
	}
	// Stable sort by nesting depth keeps spec order within one level.
	for i := 1; i < len(objs); i++ {
		for j := i; j > 0 && depth(objs[j].Name) < depth(objs[j-1].Name); j-- {
			objs[j], objs[j-1] = objs[j-1], objs[j]
		}
	}
	return objs
}

// attachChildMap overlays a pre-rendered parent's graphic with an image
// map whose regions link to its child subpages; scale is the factor the
// graphic was scaled by.
func (a *Applier) attachChildMap(parent *Subpage, children []*Subpage, scale float64) {
	img := parent.Doc.FindFirst(func(n *dom.Node) bool {
		return n.Type == dom.ElementNode && n.Tag == "img"
	})
	if img == nil {
		return
	}
	mapName := "msite-" + sanitize(parent.Name) + "-map"
	img.SetAttr("usemap", "#"+mapName)
	imageMap := dom.NewElement("map")
	imageMap.SetAttr("name", mapName)
	for _, child := range children {
		area := dom.NewElement("area")
		area.SetAttr("shape", "rect")
		r := child.Region.Scale(scale)
		area.SetAttr("coords", fmt.Sprintf("%d,%d,%d,%d", r.X, r.Y, r.X+r.W, r.Y+r.H))
		area.SetAttr("href", a.subpageURL(child.Name))
		area.SetAttr("alt", child.Title)
		imageMap.AppendChild(area)
	}
	img.InsertAfter(imageMap)
}

// applyEnv carries the shared state of the attribute pass.
type applyEnv struct {
	res      *Result
	subpages map[string]*Subpage
	rewriter *ajax.Rewriter
	// assetSeen tracks emitted asset names: distinct object names can
	// sanitize to the same file name ("nav bar" vs "nav_bar") and must
	// not overwrite each other's Asset.
	assetSeen map[string]bool
}

// uniqueAssetName reserves base+ext, appending a numeric suffix when the
// plain name is already taken by an earlier object.
func (env *applyEnv) uniqueAssetName(base, ext string) string {
	if env.assetSeen == nil {
		env.assetSeen = make(map[string]bool)
	}
	name := base + ext
	for k := 2; env.assetSeen[name]; k++ {
		name = base + "_" + strconv.Itoa(k) + ext
	}
	env.assetSeen[name] = true
	return name
}

// applyOne handles one attribute on one object's nodes.
func (a *Applier) applyOne(env *applyEnv, obj spec.Object, at spec.Attribute,
	nodes []*dom.Node) error {
	res, subpages, rewriter := env.res, env.subpages, env.rewriter
	switch at.Type {
	case spec.AttrSubpage, spec.AttrPreRender, spec.AttrDependency,
		spec.AttrCopyTo, spec.AttrCacheable, spec.AttrPartialCSS,
		spec.AttrImageFidelity, spec.AttrHTTPAuth:
		// Handled in earlier passes or by the proxy (http-auth). A
		// cacheable object needs nothing more: every object of an
		// anonymous build is shared across sessions through its Bundle.
		return nil

	case spec.AttrRemove:
		for _, n := range nodes {
			n.Detach()
		}

	case spec.AttrHide:
		// Hidden "via CSS style properties" (§3.2).
		for _, n := range nodes {
			style := n.AttrOr("style", "")
			if style != "" && !strings.HasSuffix(strings.TrimSpace(style), ";") {
				style += "; "
			}
			n.SetAttr("style", style+"display: none")
		}

	case spec.AttrReplace:
		if markup := at.Param("html", ""); markup != "" {
			for _, n := range nodes {
				parent, next := n.Parent, n.NextSibling
				if parent == nil {
					continue
				}
				n.Detach()
				insertMarkup(parent, next, markup)
			}
			return nil
		}
		attrName := at.Param("attr", "")
		if attrName == "" {
			return fmt.Errorf("attr: object %q: replace needs html or attr/value", obj.Name)
		}
		for _, n := range nodes {
			setAttrDeep(n, attrName, at.Param("value", ""))
		}

	case spec.AttrRelocate:
		target := at.Param("target", "")
		position := at.Param("position", "append")
		for _, n := range nodes {
			// A target that does not parse matches nothing.
			found, _ := css.Select(n.Root(), target)
			if len(found) == 0 {
				res.Notes = append(res.Notes,
					fmt.Sprintf("object %q: relocate target %q not found", obj.Name, target))
				continue
			}
			dest := found[0]
			// before/after need a parent to splice into; a target resolving
			// to the document (or a detached) root has none.
			if dest.Parent == nil && (position == "before" || position == "after") {
				res.Notes = append(res.Notes,
					fmt.Sprintf("object %q: relocate target %q has no parent for position %q",
						obj.Name, target, position))
				continue
			}
			n.Detach()
			switch position {
			case "prepend":
				dest.PrependChild(n)
			case "before":
				dest.Parent.InsertBefore(n, dest)
			case "after":
				dest.InsertAfter(n)
			default:
				dest.AppendChild(n)
			}
		}

	case spec.AttrInsertHTML:
		markup := at.Param("html", "")
		position := at.Param("position", "append")
		for _, n := range nodes {
			parent, ref := n, (*dom.Node)(nil)
			switch position {
			case "before":
				parent, ref = n.Parent, n
			case "after":
				parent, ref = n.Parent, n.NextSibling
			case "prepend":
				ref = n.FirstChild
			}
			if parent == nil {
				continue
			}
			insertMarkup(parent, ref, markup)
		}

	case spec.AttrInsertJS:
		code := at.Param("code", "")
		stage := at.Param("stage", "client")
		for _, n := range nodes {
			script := dom.NewElement("script")
			script.SetAttr("type", "text/javascript")
			script.SetAttr("data-msite", stage)
			script.AppendChild(dom.NewText(code))
			n.AppendChild(script)
		}

	case spec.AttrRemoveJS:
		for _, n := range nodes {
			for _, script := range n.Elements("script") {
				script.Detach()
			}
			// Also strip inline handlers, which are script too.
			n.Walk(func(d *dom.Node) bool {
				if d.Type == dom.ElementNode {
					for _, h := range []string{"onclick", "onload", "onchange", "onsubmit", "onmouseover"} {
						d.DelAttr(h)
					}
				}
				return true
			})
		}

	case spec.AttrRewriteLinks:
		columns, err := strconv.Atoi(at.Param("columns", "2"))
		if err != nil || columns < 1 {
			columns = 2
		}
		for _, n := range nodes {
			rewriteLinksVertical(n, columns)
		}

	case spec.AttrSearchable:
		// Resolved in finishSubpage (needs the rendered layout); mark via
		// the subpage if present.
		if sub, ok := subpages[obj.Name]; ok {
			sub.SearchJS = "pending:" + at.Param("trigger", "")
		}

	case spec.AttrAJAXify:
		if rewriter == nil {
			res.Notes = append(res.Notes,
				fmt.Sprintf("object %q: ajaxify without actions", obj.Name))
			return nil
		}
		for _, n := range nodes {
			res.AJAXRewrites += rewriter.RewriteDoc(n)
			ajax.InjectRuntime(n.Root())
		}

	case spec.AttrThumbnail:
		return a.applyThumbnail(env, obj, at, nodes)

	case spec.AttrRepair:
		rules, err := quality.ParseRules(at.Param("rules", "all"))
		if err != nil {
			return fmt.Errorf("attr: object %q: %w", obj.Name, err)
		}
		for _, n := range nodes {
			for _, r := range quality.RepairAll(rules, n) {
				res.Notes = append(res.Notes, fmt.Sprintf(
					"object %q: repair rule %s made %d fixes", obj.Name, r.Rule, r.N))
			}
		}

	default:
		return fmt.Errorf("attr: object %q: unhandled attribute %q", obj.Name, at.Type)
	}
	return nil
}

// applyThumbnail renders the object's rendered region of the original
// page — that rectangle and no other pixel — scaled down, and swaps the
// rich-media element for a linked thumbnail image — "thumbnail snapshots
// of rich media content for resource-constrained devices". An object laid
// out wholly outside the page keeps its element and gets a note.
func (a *Applier) applyThumbnail(env *applyEnv, obj spec.Object, at spec.Attribute,
	nodes []*dom.Node) error {
	scale := 0.5
	if v, err := strconv.ParseFloat(at.Param("scale", ""), 64); err == nil && v > 0 && v <= 2 {
		scale = v
	}
	fid := fidelityFromName(at.Param("fidelity", "low"))
	if fid == imaging.FidelityThumb {
		fid = imaging.FidelityLow // explicit scale already applied below
	}
	cfg := progressive.Config{Ctx: a.Ctx, Raster: raster.Options{Images: a.Images}, Fidelity: fid, Scale: scale}
	for i, n := range nodes {
		// A node without a box has the empty region; Rectangle, unlike
		// image.Rect, keeps a negative size empty.
		x, y, w, h, _ := env.res.Layout.Region(n)
		r := image.Rectangle{Min: image.Pt(x, y), Max: image.Pt(x+w, y+h)}
		out, err := progressive.RenderRegion(env.res.Layout, cfg, r)
		if errors.Is(err, progressive.ErrOutsideFrame) {
			env.res.Notes = append(env.res.Notes,
				fmt.Sprintf("object %q: thumbnail target has no rendered region", obj.Name))
			continue
		}
		if err != nil {
			return fmt.Errorf("attr: object %q: rendering thumbnail: %w", obj.Name, err)
		}
		base := sanitize(obj.Name)
		if i > 0 {
			base += "_" + strconv.Itoa(i)
		}
		name := env.uniqueAssetName(base+"_thumb", fid.Ext())
		env.res.Assets = append(env.res.Assets, Asset{
			Name: name, Data: out.Data, MIME: out.MIME,
		})

		href := at.Param("href", n.AttrOr("src", ""))
		if href == "" {
			if inner := n.FindFirst(func(d *dom.Node) bool {
				return d.Type == dom.ElementNode && d.HasAttr("src")
			}); inner != nil {
				href = inner.AttrOr("src", "")
			}
		}
		img := dom.NewElement("img")
		img.SetAttr("src", a.assetURL(name))
		img.SetAttr("width", itoa(out.Width))
		img.SetAttr("height", itoa(out.Height))
		img.SetAttr("alt", obj.Name+" thumbnail")
		var repl *dom.Node = img
		if href != "" {
			link := dom.NewElement("a")
			link.SetAttr("href", href)
			link.AppendChild(img)
			repl = link
		}
		n.ReplaceWith(repl)
	}
	return nil
}

// setAttrDeep sets an attribute on n, or when n does not carry it, on the
// first descendant that does (the Fig. 5 logo case: the object is the
// logo table, the src lives on the img inside).
func setAttrDeep(n *dom.Node, key, val string) {
	if n.Type == dom.ElementNode && n.HasAttr(key) {
		n.SetAttr(key, val)
		return
	}
	target := n.FindFirst(func(d *dom.Node) bool {
		return d.Type == dom.ElementNode && d.HasAttr(key)
	})
	if target != nil {
		target.SetAttr(key, val)
		return
	}
	if n.Type == dom.ElementNode {
		n.SetAttr(key, val)
	}
}

// insertMarkup parses markup and inserts its fragments, in order, as
// children of parent before ref (at the end when ref is nil).
func insertMarkup(parent, ref *dom.Node, markup string) {
	for _, frag := range html.ParseFragment(markup) {
		parent.InsertBefore(frag, ref)
	}
}

// applyCopyOverrides applies copy-to's set-attr/set-value/within params
// to a cloned subtree.
func applyCopyOverrides(clone *dom.Node, at spec.Attribute) {
	key := at.Param("set-attr", "")
	if key == "" {
		return
	}
	val := at.Param("set-value", "")
	if within := at.Param("within", ""); within != "" {
		// A within selector that does not parse matches nothing.
		found, _ := css.Select(clone, within)
		for _, n := range found {
			n.SetAttr(key, val)
		}
		return
	}
	setAttrDeep(clone, key, val)
}

// rewriteLinksVertical strips the links out of a horizontal nav segment
// and rewrites them as a vertical multi-column table (§4.3).
func rewriteLinksVertical(n *dom.Node, columns int) {
	links := n.Elements("a")
	if len(links) == 0 {
		return
	}
	table := dom.NewElement("table")
	table.SetAttr("class", "msite-nav")
	table.SetAttr("width", "100%")
	rows := (len(links) + columns - 1) / columns
	for r := 0; r < rows; r++ {
		tr := dom.NewElement("tr")
		for c := 0; c < columns; c++ {
			td := dom.NewElement("td")
			idx := c*rows + r
			if idx < len(links) {
				td.AppendChild(links[idx].Clone())
			}
			tr.AppendChild(td)
		}
		table.AppendChild(tr)
	}
	n.Empty()
	n.AppendChild(table)
}

func fidelityFromName(name string) imaging.Fidelity {
	switch strings.ToLower(name) {
	case "high":
		return imaging.FidelityHigh
	case "medium":
		return imaging.FidelityMedium
	case "thumb":
		return imaging.FidelityThumb
	default:
		return imaging.FidelityLow
	}
}

// newSubpageDoc builds an empty subpage document skeleton.
func newSubpageDoc(title string) *dom.Node {
	doc := dom.NewDocument()
	doc.AppendChild(dom.NewDoctype("html"))
	root := dom.NewElement("html")
	head := dom.NewElement("head")
	titleEl := dom.NewElement("title")
	titleEl.AppendChild(dom.NewText(title))
	meta := dom.NewElement("meta")
	meta.SetAttr("name", "viewport")
	meta.SetAttr("content", "width=device-width, initial-scale=1")
	head.AppendChild(titleEl)
	head.AppendChild(meta)
	body := dom.NewElement("body")
	root.AppendChild(head)
	root.AppendChild(body)
	doc.AppendChild(root)
	return doc
}
