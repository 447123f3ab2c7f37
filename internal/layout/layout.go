package layout

import (
	"image/color"
	"iter"
	"strconv"
	"strings"

	"msite/internal/css"
	"msite/internal/dom"
)

// Viewport configures the layout width in CSS pixels.
type Viewport struct {
	Width int
}

// DefaultViewport is a conventional desktop layout width.
var DefaultViewport = Viewport{Width: 1024}

// Box is one laid-out box with absolute border-box coordinates.
type Box struct {
	Node *dom.Node // nil for anonymous boxes
	// Style is the element's computed style, shared with every box whose
	// element cascades alike: read it, never write it.
	Style css.Style

	X, Y, W, H float64

	// Children and Runs are windows of the layout's slabs, cut with
	// len == cap: appending to either copies it out rather than writing
	// over the window after it.
	Children []*Box
	Runs     []TextRun
}

// TextRun is one positioned fragment of text on a single line.
type TextRun struct {
	Text     string
	Node     *dom.Node // owning text node
	X, Y     float64   // top-left of the painted glyphs
	FontSize float64
	Bold     bool
	Italic   bool
	// Underline paints a rule under the glyphs (anchor text, or
	// text-decoration: underline).
	Underline bool
	Color     color.RGBA
}

// Width returns the run's painted width in CSS pixels.
func (r TextRun) Width() float64 { return TextWidth(r.Text, r.FontSize) }

// Height returns the run's painted height in CSS pixels.
func (r TextRun) Height() float64 { return GlyphHeight(r.FontSize) }

// Result is the outcome of laying out a document.
type Result struct {
	Root *Box
	// Width and Height are the document pixel extents.
	Width  int
	Height int

	byNode map[*dom.Node]*Box
}

// BoxFor returns the box generated for a DOM node, or nil if the node
// produced no box (display:none, non-rendered, or not in this layout).
func (r *Result) BoxFor(n *dom.Node) *Box {
	return r.byNode[n]
}

// Region returns the integer pixel rectangle of the box generated for n.
// This is the coordinate query the snapshot image-map generator uses.
func (r *Result) Region(n *dom.Node) (x, y, w, h int, ok bool) {
	b := r.byNode[n]
	if b == nil {
		return 0, 0, 0, 0, false
	}
	return int(b.X), int(b.Y), int(b.W + 0.5), int(b.H + 0.5), true
}

// Runs yields every text run in the layout, in paint order: a box's own
// runs, then its children's.
func (r *Result) Runs() iter.Seq[TextRun] {
	return func(yield func(TextRun) bool) {
		var walk func(b *Box) bool
		walk = func(b *Box) bool {
			for _, run := range b.Runs {
				if !yield(run) {
					return false
				}
			}
			for _, c := range b.Children {
				if !walk(c) {
					return false
				}
			}
			return true
		}
		walk(r.Root)
	}
}

// CountBoxes returns the number of boxes in the layout tree.
func (r *Result) CountBoxes() int {
	n := 0
	var walk func(b *Box)
	walk = func(b *Box) {
		n++
		for _, c := range b.Children {
			walk(c)
		}
	}
	walk(r.Root)
	return n
}

// Layout computes the box tree for a parsed document. styler may be nil,
// in which case only default and inline styles apply.
func Layout(doc *dom.Node, styler *css.Styler, vp Viewport) *Result {
	if vp.Width <= 0 {
		vp = DefaultViewport
	}
	if styler == nil {
		styler = css.NewStyler()
	}
	ctx := &lctx{styler: styler, byNode: make(map[*dom.Node]*Box)}
	ctx.boxes.Chunk, ctx.runs.Chunk, ctx.children.Chunk = boxChunk, runChunk, boxChunk

	body := doc.Body()
	root := body
	if root == nil {
		root = doc.DocumentElement()
	}
	if root == nil {
		root = doc
	}
	var rootStyle css.Style
	if root.Type == dom.ElementNode {
		rootStyle = ctx.styler.ComputedStyle(root, nil)
	} else {
		rootStyle = css.Style{"display": "block"}
	}
	box := ctx.layoutBlock(root, rootStyle, 0, 0, float64(vp.Width), 0)
	res := &Result{
		Root:   box,
		Width:  vp.Width,
		Height: int(box.H + 0.5),
		byNode: ctx.byNode,
	}
	return res
}

type lctx struct {
	styler *css.Styler
	byNode map[*dom.Node]*Box
	// boxes, runs and children are the slabs the boxes and each box's
	// Runs and Children are cut from; the Result's boxes keep every
	// chunk alive, and nothing else does.
	boxes    dom.Slab[Box]
	runs     dom.Slab[TextRun]
	children dom.Slab[*Box]
	// kids is the stack every box pushes its children onto while it is
	// laid out (addChild). Layout is depth first, so a box's children
	// are the top of the stack from its first push to its cutChildren,
	// and a nested box has cut its own before its parent pushes again.
	kids []*Box
	// words is the pending-word buffer every line context of the layout
	// shares: a line's words are flushed before a nested block opens a
	// line of its own.
	words []pendingWord
}

// boxChunk and runChunk are how many boxes and text runs a slab chunk
// holds. Every box but the root is some box's child, so a chunk of the
// children slab holds boxChunk of them too.
const boxChunk, runChunk = 128, 256

// addChild makes child the next child of the box on top of the stack.
func (c *lctx) addChild(child *Box) { c.kids = append(c.kids, child) }

// cutChildren returns the children pushed since the stack held base
// boxes, as a window of the children slab, and pops them.
func (c *lctx) cutChildren(base int) []*Box {
	kids := c.children.Clone(c.kids[base:])
	c.kids = c.kids[:base]
	return kids
}

// edges resolves margin, border, and padding for a style.
type edges struct {
	mt, mr, mb, ml float64
	bt, br, bb, bl float64
	pt, pr, pb, pl float64
}

// resolveEdges resolves a style's edges within availW. pad is the padding
// of each side the style leaves unset: a table's cellpadding for its
// cells, 0 for any other box.
func resolveEdges(style css.Style, availW, pad float64) edges {
	get := func(prop string, unset float64) float64 {
		s := style.Get(prop, "")
		if s == "" {
			return unset
		}
		v, ok := css.ParseLength(s, availW)
		if !ok || v < 0 {
			return 0
		}
		return v
	}
	borderW := func(side string) float64 {
		st := style.Get("border-"+side+"-style", "")
		if st == "none" || st == "hidden" {
			return 0
		}
		w, ok := css.ParseLength(style.Get("border-"+side+"-width", ""), 0)
		if !ok || w < 0 {
			if st != "" { // style set without width: medium
				return 3
			}
			return 0
		}
		return w
	}
	return edges{
		mt: get("margin-top", 0), mr: get("margin-right", 0),
		mb: get("margin-bottom", 0), ml: get("margin-left", 0),
		bt: borderW("top"), br: borderW("right"),
		bb: borderW("bottom"), bl: borderW("left"),
		pt: get("padding-top", pad), pr: get("padding-right", pad),
		pb: get("padding-bottom", pad), pl: get("padding-left", pad),
	}
}

func fontSizeOf(style css.Style) float64 {
	v, ok := css.ParseLength(style.Get("font-size", ""), css.DefaultFontSize)
	if !ok || v <= 0 {
		return css.DefaultFontSize
	}
	return v
}

// underlineOf reports whether text in this style paints an underline:
// an explicit text-decoration, or anchor-element default (unless
// decoration is explicitly none).
func underlineOf(style css.Style, node *dom.Node) bool {
	deco := style.Get("text-decoration", "")
	if strings.Contains(deco, "underline") {
		return true
	}
	if deco == "none" {
		return false
	}
	for p := node; p != nil && p.Type != dom.DocumentNode; p = p.Parent {
		if p.Type == dom.ElementNode && p.Tag == "a" && p.HasAttr("href") {
			return true
		}
	}
	return false
}

func colorOf(style css.Style) color.RGBA {
	c, ok := css.ParseColor(style.Get("color", ""))
	if !ok {
		return color.RGBA{A: 255}
	}
	return c
}

// layoutBlock lays out n as a block at (x, y) with available outer width
// availW. The returned box has final geometry; (x, y) is the margin-box
// origin, and the box's X/Y are the border-box origin. pad is the padding
// of a side the style leaves unset (see resolveEdges).
func (c *lctx) layoutBlock(n *dom.Node, style css.Style, x, y, availW, pad float64) *Box {
	e := resolveEdges(style, availW, pad)

	// Default list indentation, as browsers apply via UA stylesheet.
	if (n.Tag == "ul" || n.Tag == "ol") && style.Get("padding-left", "") == "" {
		e.pl += 40
	}

	// Resolve width.
	contentAvail := availW - e.ml - e.mr - e.bl - e.br - e.pl - e.pr
	if contentAvail < 0 {
		contentAvail = 0
	}
	contentW := contentAvail
	if w, ok := css.ParseLength(style.Get("width", widthAttr(n)), availW); ok && w >= 0 {
		contentW = w
	}

	box := c.boxes.New()
	*box = Box{
		Node:  n,
		Style: style,
		X:     x + e.ml,
		Y:     y + e.mt,
		W:     contentW + e.bl + e.br + e.pl + e.pr,
	}
	if n != nil {
		c.byNode[n] = box
	}

	contentX := box.X + e.bl + e.pl
	contentY := box.Y + e.bt + e.pt

	base := len(c.kids)
	var contentH float64
	switch {
	case n.Tag == "table":
		contentH = c.layoutTable(n, style, contentX, contentY, contentW)
	case n.Tag == "hr":
		contentH = 2
	default:
		contentH = c.layoutFlow(box, n, style, contentX, contentY, contentW)
	}
	box.Children = c.cutChildren(base)

	if h, ok := css.ParseLength(style.Get("height", heightAttr(n)), 0); ok && h > contentH {
		contentH = h
	}
	box.H = contentH + e.bt + e.bb + e.pt + e.pb
	return box
}

// widthAttr maps presentational width attributes (vBulletin-era markup)
// into the style system. Percentages pass through for ParseLength.
func widthAttr(n *dom.Node) string {
	if n == nil {
		return ""
	}
	switch n.Tag {
	case "table", "td", "th", "img", "iframe":
		return n.AttrOr("width", "")
	}
	return ""
}

func heightAttr(n *dom.Node) string {
	if n == nil {
		return ""
	}
	switch n.Tag {
	case "table", "td", "th", "img", "iframe":
		return n.AttrOr("height", "")
	}
	return ""
}

// layoutFlow lays out mixed block/inline children inside a content box
// and returns the content height.
//
// Floats are supported in the simplified form template-era pages rely
// on: a floated block with an explicit width is taken out of the normal
// flow and stacked against the left or right content edge; consecutive
// floats on a side stack horizontally (the classic two-pane layout), and
// the first subsequent in-flow content clears below the tallest float.
func (c *lctx) layoutFlow(box *Box, n *dom.Node, style css.Style, contentX, contentY, contentW float64) float64 {
	cur := contentY
	line := c.newLineCtx(box, style, contentX, cur, contentW)

	var floatLeftW, floatRightW, floatMaxY float64

	flushLine := func() {
		cur = line.finish()
	}
	clearFloats := func() {
		if floatMaxY > cur {
			cur = floatMaxY
			line = c.newLineCtx(box, style, contentX, cur, contentW)
		}
		floatLeftW, floatRightW, floatMaxY = 0, 0, 0
	}

	for child := n.FirstChild; child != nil; child = child.NextSibling {
		switch child.Type {
		case dom.TextNode:
			if floatMaxY > 0 && strings.TrimSpace(child.Data) != "" {
				flushLine()
				clearFloats()
			}
			line.addText(child, style)
		case dom.ElementNode:
			childStyle := c.styler.ComputedStyle(child, style)
			disp := childStyle.Get("display", "inline")
			if disp == "none" {
				continue
			}
			side := childStyle.Get("float", "")
			floatW, hasW := css.ParseLength(childStyle.Get("width", widthAttr(child)), contentW)
			if (side == "left" || side == "right") && hasW && floatW > 0 &&
				(disp == "block" || disp == "table" || disp == "inline-block") {
				flushLine()
				cb := c.layoutBlock(child, childStyle, contentX, cur, contentW, 0)
				ce := resolveEdges(childStyle, contentW, 0)
				outerW := cb.W + ce.ml + ce.mr
				var dx float64
				if side == "left" {
					dx = floatLeftW
					floatLeftW += outerW
				} else {
					dx = contentW - floatRightW - outerW
					floatRightW += outerW
				}
				shiftBox(cb, dx, 0)
				c.addChild(cb)
				if bottom := cb.Y + cb.H + ce.mb; bottom > floatMaxY {
					floatMaxY = bottom
				}
				continue // floats do not advance the flow
			}
			switch disp {
			case "block", "table", "table-row", "table-cell":
				// table-row/cell outside a table degrade to blocks.
				flushLine()
				clearFloats()
				cb := c.layoutBlock(child, childStyle, contentX, cur, contentW, 0)
				c.addChild(cb)
				ce := resolveEdges(childStyle, contentW, 0)
				cur = cb.Y + cb.H + ce.mb
				line = c.newLineCtx(box, style, contentX, cur, contentW)
			default: // inline, inline-block
				c.inlineElement(child, childStyle, &line)
			}
		}
	}
	flushLine()
	// The box's runs are done: clipped, appending to them copies them
	// out, as it does a window still in the run slab.
	box.Runs = box.Runs[:len(box.Runs):len(box.Runs)]
	if floatMaxY > cur {
		cur = floatMaxY
	}
	h := cur - contentY
	if h < 0 {
		h = 0
	}
	return h
}

// shiftBox translates a laid-out box tree (and its text runs) by
// (dx, dy).
func shiftBox(b *Box, dx, dy float64) {
	if dx == 0 && dy == 0 {
		return
	}
	b.X += dx
	b.Y += dy
	for i := range b.Runs {
		b.Runs[i].X += dx
		b.Runs[i].Y += dy
	}
	for _, c := range b.Children {
		shiftBox(c, dx, dy)
	}
}

// inlineElement feeds an inline element's content into the line context,
// then synthesizes a bounding box for the element so image maps can
// reference it.
func (c *lctx) inlineElement(n *dom.Node, style css.Style, line *lineCtx) {
	if n.Tag == "br" {
		line.breakLine()
		return
	}
	var bounds rect
	if atom, ok := atomSize(n, style); ok {
		r := line.placeAtom(atom.w, atom.h)
		bounds.merge(r)
	} else {
		start := len(line.box.Runs)
		pendStart := len(*line.pending)
		for child := n.FirstChild; child != nil; child = child.NextSibling {
			switch child.Type {
			case dom.TextNode:
				line.addText(child, style)
			case dom.ElementNode:
				childStyle := c.styler.ComputedStyle(child, style)
				disp := childStyle.Get("display", "inline")
				if disp == "none" {
					continue
				}
				c.inlineElement(child, childStyle, line)
			}
		}
		for _, r := range line.box.Runs[start:] {
			bounds.merge(rect{r.X, r.Y, r.X + r.Width(), r.Y + r.Height()})
		}
		// Include pending (unflushed) words added by this element on the
		// open line. A wrap inside the element may have flushed earlier
		// pending entries into Runs, which the loop above already covers.
		if pendStart > len(*line.pending) {
			pendStart = 0
		}
		for _, w := range (*line.pending)[pendStart:] {
			bounds.merge(rect{w.x, line.y, w.x + w.width, line.y + GlyphHeight(w.fontSize)})
		}
	}
	if bounds.valid() {
		eb := c.boxes.New()
		*eb = Box{
			Node:  n,
			Style: style,
			X:     bounds.x0,
			Y:     bounds.y0,
			W:     bounds.x1 - bounds.x0,
			H:     bounds.y1 - bounds.y0,
		}
		c.addChild(eb)
		c.byNode[n] = eb
	}
}

type atom struct{ w, h float64 }

// atomSize returns the replaced-element box for atoms (images, form
// controls) or ok=false for ordinary inline elements.
func atomSize(n *dom.Node, style css.Style) (atom, bool) {
	attrF := func(key string, def float64) float64 {
		if v, err := strconv.ParseFloat(strings.TrimSuffix(n.AttrOr(key, ""), "px"), 64); err == nil && v > 0 {
			return v
		}
		return def
	}
	switch n.Tag {
	case "img", "iframe", "embed", "object", "video", "canvas":
		w := attrF("width", 80)
		h := attrF("height", 60)
		if sv, ok := css.ParseLength(style.Get("width", ""), 0); ok && sv > 0 {
			w = sv
		}
		if sv, ok := css.ParseLength(style.Get("height", ""), 0); ok && sv > 0 {
			h = sv
		}
		return atom{w, h}, true
	case "input":
		switch strings.ToLower(n.AttrOr("type", "text")) {
		case "checkbox", "radio":
			return atom{13, 13}, true
		case "hidden":
			return atom{0, 0}, true
		case "submit", "button", "reset":
			label := n.AttrOr("value", "Submit")
			return atom{TextWidth(label, 13) + 16, 22}, true
		case "image":
			return atom{attrF("width", 80), attrF("height", 22)}, true
		default:
			size := attrF("size", 20)
			return atom{size * CharWidth(13), 22}, true
		}
	case "select":
		return atom{110, 22}, true
	case "textarea":
		cols := attrF("cols", 30)
		rows := attrF("rows", 4)
		return atom{cols * CharWidth(13), rows * LineHeight(13)}, true
	case "button":
		return atom{TextWidth(n.Text(), 13) + 16, 22}, true
	}
	return atom{}, false
}

// layoutTable lays out table rows and cells and returns the content
// height. Presentational cellpadding/cellspacing attributes are honored,
// since the template-driven sites m.Site targets rely on them.
func (c *lctx) layoutTable(n *dom.Node, style css.Style, contentX, contentY, contentW float64) float64 {
	spacing := 2.0
	if v, err := strconv.ParseFloat(n.AttrOr("cellspacing", ""), 64); err == nil && v >= 0 {
		spacing = v
	}
	padding := 1.0
	if v, err := strconv.ParseFloat(n.AttrOr("cellpadding", ""), 64); err == nil && v >= 0 {
		padding = v
	}

	// Column count = max cells in any row (colspan counts extra).
	cols := 0
	eachRow(n, func(row *dom.Node) {
		span := 0
		for cell := row.FirstChild; cell != nil; cell = cell.NextSibling {
			if isCell(cell) {
				span += cellSpan(cell)
			}
		}
		cols = max(cols, span)
	})
	if cols == 0 {
		return 0
	}
	colW := (contentW - spacing*float64(cols+1)) / float64(cols)
	if colW < 0 {
		colW = 0
	}

	cur := contentY + spacing
	eachRow(n, func(row *dom.Node) {
		rowStyle := c.styler.ComputedStyle(row, style)
		rowBox := c.boxes.New()
		*rowBox = Box{Node: row, Style: rowStyle, X: contentX, Y: cur, W: contentW}
		c.byNode[row] = rowBox

		base := len(c.kids)
		maxH := 0.0
		cx := contentX + spacing
		for cell := row.FirstChild; cell != nil; cell = cell.NextSibling {
			if !isCell(cell) {
				continue
			}
			span := cellSpan(cell)
			cw := colW*float64(span) + spacing*float64(span-1)
			cellStyle := c.styler.ComputedStyle(cell, rowStyle)
			// Honor explicit width attributes within the row budget.
			if wAttr := cell.AttrOr("width", ""); wAttr != "" {
				if v, ok := css.ParseLength(wAttr, contentW); ok && v > 0 && v <= contentW {
					cw = v
				}
			}
			// The table's cellpadding pads each side the cell leaves unset.
			cb := c.layoutBlock(cell, cellStyle, cx, cur, cw, padding)
			cb.W = cw // cells fill their column regardless of content
			c.addChild(cb)
			if cb.H > maxH {
				maxH = cb.H
			}
			cx += cw + spacing
		}
		rowBox.Children = c.cutChildren(base)
		c.addChild(rowBox)
		// Equalize cell heights across the row.
		for _, cb := range rowBox.Children {
			cb.H = maxH
		}
		rowBox.H = maxH
		cur += maxH + spacing
	})
	return cur - contentY
}

// eachRow calls f with each row of table in document order: its tr
// children and those of its row groups.
func eachRow(table *dom.Node, f func(row *dom.Node)) {
	for group := table.FirstChild; group != nil; group = group.NextSibling {
		if group.Type != dom.ElementNode {
			continue
		}
		switch group.Tag {
		case "tr":
			f(group)
		case "thead", "tbody", "tfoot":
			for r := group.FirstChild; r != nil; r = r.NextSibling {
				if r.Type == dom.ElementNode && r.Tag == "tr" {
					f(r)
				}
			}
		}
	}
}

// isCell reports whether a row's child is a cell.
func isCell(n *dom.Node) bool {
	return n.Type == dom.ElementNode && (n.Tag == "td" || n.Tag == "th")
}

// cellSpan returns how many columns a cell's colspan says it takes: 1
// unless the attribute is an integer above 1.
func cellSpan(cell *dom.Node) int {
	if colspan, ok := cell.Attr("colspan"); ok {
		if v, err := strconv.Atoi(colspan); err == nil && v > 1 {
			return v
		}
	}
	return 1
}

// --- inline line building ---

type rect struct{ x0, y0, x1, y1 float64 }

func (r *rect) valid() bool { return r.x1 > r.x0 || r.y1 > r.y0 }

func (r *rect) merge(o rect) {
	if !r.valid() && r.x0 == 0 && r.y0 == 0 {
		*r = o
		return
	}
	if o.x0 < r.x0 {
		r.x0 = o.x0
	}
	if o.y0 < r.y0 {
		r.y0 = o.y0
	}
	if o.x1 > r.x1 {
		r.x1 = o.x1
	}
	if o.y1 > r.y1 {
		r.y1 = o.y1
	}
}

type pendingWord struct {
	text      string
	node      *dom.Node
	x, width  float64
	fontSize  float64
	bold      bool
	italic    bool
	underline bool
	color     color.RGBA
}

// lineCtx accumulates inline content into line boxes within a containing
// block, flushing TextRuns into the block's box.
type lineCtx struct {
	box    *Box
	x0     float64 // line start X
	availW float64
	x      float64 // next placement X
	y      float64 // current line top
	lineH  float64 // current line height
	// pending is the words placed on the current line and not yet
	// flushed: the layout's one buffer (lctx.words).
	pending *[]pendingWord
	// runs is the layout's run slab (lctx.runs).
	runs    *dom.Slab[TextRun]
	align   string
	started bool // any content placed on current line
}

func (c *lctx) newLineCtx(box *Box, style css.Style, x0, y, availW float64) lineCtx {
	return lineCtx{
		box:     box,
		x0:      x0,
		availW:  availW,
		x:       x0,
		y:       y,
		pending: &c.words,
		runs:    &c.runs,
		align:   style.Get("text-align", "left"),
	}
}

// addText splits a text node into words and places them with wrapping.
func (lc *lineCtx) addText(node *dom.Node, style css.Style) {
	fs := fontSizeOf(style)
	bold := strings.HasPrefix(style.Get("font-weight", ""), "bold") || style.Get("font-weight", "") == "700"
	italic := style.Get("font-style", "") == "italic"
	underline := underlineOf(style, node)
	col := colorOf(style)

	space := CharWidth(fs)
	for w := range strings.FieldsSeq(node.Data) {
		ww := TextWidth(w, fs)
		needed := ww
		if lc.started {
			needed += space
		}
		if lc.started && lc.x+needed > lc.x0+lc.availW {
			lc.wrap()
		}
		if lc.started {
			lc.x += space
		}
		*lc.pending = append(*lc.pending, pendingWord{
			text: w, node: node, x: lc.x, width: ww,
			fontSize: fs, bold: bold, italic: italic, underline: underline,
			color: col,
		})
		lc.x += ww
		lc.started = true
		lh := LineHeight(fs)
		if lh > lc.lineH {
			lc.lineH = lh
		}
	}
}

// placeAtom places a replaced-element box on the line and returns its
// rectangle.
func (lc *lineCtx) placeAtom(w, h float64) rect {
	if w == 0 && h == 0 {
		return rect{}
	}
	if lc.started && lc.x+w > lc.x0+lc.availW {
		lc.wrap()
	}
	r := rect{lc.x, lc.y, lc.x + w, lc.y + h}
	lc.x += w
	lc.started = true
	if h > lc.lineH {
		lc.lineH = h
	}
	return r
}

// breakLine forces a new line (for <br>).
func (lc *lineCtx) breakLine() {
	if lc.lineH == 0 {
		lc.lineH = LineHeight(16)
	}
	lc.wrap()
}

// wrap flushes the pending words as runs on the current line and starts
// a new one.
func (lc *lineCtx) wrap() {
	lc.flushPending()
	lc.y += lc.lineH
	lc.x = lc.x0
	lc.lineH = 0
	lc.started = false
}

// flushPending emits pending words as TextRuns, applying text-align
// offset for the completed line.
func (lc *lineCtx) flushPending() {
	if len(*lc.pending) == 0 {
		return
	}
	offset := 0.0
	lineWidth := lc.x - lc.x0
	switch lc.align {
	case "center":
		offset = (lc.availW - lineWidth) / 2
	case "right":
		offset = lc.availW - lineWidth
	}
	if offset < 0 {
		offset = 0
	}
	// The box's runs grow in place while they are the slab's last
	// window. Once a nested block's runs are cut after them they leave
	// the slab and grow as append grows them, doubling, so a block whose
	// lines alternate with nested blocks copies each run O(1) times.
	// Either way they keep their indices (inlineElement reads
	// Runs[start:]), and layoutFlow clips them when the box is done.
	runs, inSlab := lc.box.Runs, lc.runs.Reopen(lc.box.Runs)
	for _, w := range *lc.pending {
		// Baseline-align runs of mixed sizes to the line bottom.
		runY := lc.y + lc.lineH - GlyphHeight(w.fontSize) - (lc.lineH-GlyphHeight(w.fontSize))/2
		if lc.lineH == 0 {
			runY = lc.y
		}
		run := TextRun{
			Text: w.text, Node: w.node,
			X: w.x + offset, Y: runY,
			FontSize: w.fontSize, Bold: w.bold, Italic: w.italic,
			Underline: w.underline,
			Color:     w.color,
		}
		if inSlab {
			lc.runs.Add(run)
		} else {
			runs = append(runs, run)
		}
	}
	if inSlab {
		runs = lc.runs.Cut()
	}
	lc.box.Runs = runs
	*lc.pending = (*lc.pending)[:0]
}

// finish flushes any open line and returns the Y coordinate following the
// inline content.
func (lc *lineCtx) finish() float64 {
	if !lc.started && len(*lc.pending) == 0 {
		return lc.y
	}
	lc.flushPending()
	end := lc.y + lc.lineH
	lc.y = end
	lc.x = lc.x0
	lc.lineH = 0
	lc.started = false
	return end
}
