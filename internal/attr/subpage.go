package attr

import (
	"fmt"
	"strings"

	"msite/internal/css"
	"msite/internal/dom"
	"msite/internal/layout"
	"msite/internal/progressive"
	"msite/internal/raster"
	"msite/internal/search"
	"msite/internal/spec"
)

// finishSubpage performs the rendering work a subpage asked for:
// pre-rendering to an image, partial CSS pre-rendering, and searchable
// index construction.
func (a *Applier) finishSubpage(sp *spec.Spec, sub *Subpage, width int) error {
	searchTrigger, searchable := "", false
	if strings.HasPrefix(sub.SearchJS, "pending:") {
		searchTrigger = strings.TrimPrefix(sub.SearchJS, "pending:")
		sub.SearchJS = ""
		searchable = true
	}

	if !sub.PreRender && !sub.PartialCSS {
		if searchable {
			// Searchable without pre-rendering indexes the subpage as it
			// will lay out on the client.
			res := layoutDoc(sub.Doc, width, sub.Sheets)
			sub.SearchJS = search.Build(res).JS(searchTrigger)
			injectScript(sub.Doc, sub.SearchJS)
		}
		return nil
	}

	// The subpage's graphic: all of it for a full pre-render (§3.3
	// "Pre-rendering"), the text-free background for a partial-CSS one.
	// A full pre-render is an image of the page like the snapshot, and
	// ships at the snapshot's scale; a partial-CSS background stays as
	// painted, since the device draws its text at layout coordinates.
	res := layoutDoc(sub.Doc, width, sub.Sheets)
	scale := 1.0
	if !sub.PartialCSS {
		scale = prerenderScale(sp)
	}
	// A page painted from text and boxes is flat, and ships as an exact
	// PNG smaller than the spec's fidelity rung would be.
	out, err := progressive.Render(res, progressive.Config{
		Ctx:      a.Ctx,
		Raster:   raster.Options{SkipText: sub.PartialCSS, Images: a.Images},
		Fidelity: sub.Fidelity,
		Exact:    true,
		Scale:    scale,
	})
	if err != nil {
		return fmt.Errorf("attr: pre-rendering subpage %q: %w", sub.Name, err)
	}
	sub.ImageData, sub.ImageMIME = out.Data, out.MIME
	if sub.PartialCSS {
		a.finishPartialCSS(sub, res, searchable, searchTrigger)
		return nil
	}

	// The subpage becomes a single graphic, optionally searchable via
	// the word index.
	page := newSubpageDoc(sub.Title)
	body := page.Body()
	imgEl := dom.NewElement("img")
	imgEl.SetAttr("src", a.assetURL(AssetFileName(sub)))
	imgEl.SetAttr("alt", sub.Title)
	imgEl.SetAttr("width", itoa(out.Width))
	imgEl.SetAttr("height", itoa(out.Height))
	body.AppendChild(imgEl)

	if searchable {
		idx := search.Build(res)
		if scale < 1 {
			idx = idx.Scale(scale)
		}
		sub.SearchJS = idx.JS(searchTrigger)
		injectScript(page, sub.SearchJS)
		// Pre-rendered pages need the trigger element the administrator
		// referenced; synthesize a default if it is not present.
		if searchTrigger != "" && page.ElementByID(searchTrigger) == nil {
			btn := dom.NewElement("a")
			btn.SetAttr("id", searchTrigger)
			btn.SetAttr("href", "#")
			btn.AppendChild(dom.NewText("Search"))
			body.PrependChild(btn)
		}
	}
	sub.Doc = page
	return nil
}

// prerenderScale is the factor pre-rendered subpage images are scaled by:
// the spec's one scale, snapshot.scale, when the snapshot is enabled and
// scales down; otherwise 1, as painted.
func prerenderScale(sp *spec.Spec) float64 {
	if s := sp.Snapshot.Scale; sp.Snapshot.Enabled && s > 0 && s < 1 {
		return s
	}
	return 1
}

// finishPartialCSS implements §3.3 "Partial CSS rendering": the server
// renders the object's graphical component (backgrounds, borders, box
// art) with text suppressed, and the device draws the text at the
// measured coordinates over that background.
func (a *Applier) finishPartialCSS(sub *Subpage, res *layout.Result, searchable bool, trigger string) {
	page := newSubpageDoc(sub.Title)
	body := page.Body()
	container := dom.NewElement("div")
	container.SetAttr("style", fmt.Sprintf(
		"position: relative; width: %dpx; height: %dpx; background-image: url(%s)",
		res.Width, res.Height, a.assetURL(AssetFileName(sub))))
	for run := range res.Runs() {
		span := dom.NewElement("span")
		style := fmt.Sprintf(
			"position: absolute; left: %dpx; top: %dpx; font-size: %dpx",
			int(run.X), int(run.Y), int(run.FontSize))
		if run.Bold {
			style += "; font-weight: bold"
		}
		span.SetAttr("style", style)
		span.AppendChild(dom.NewText(run.Text))
		container.AppendChild(span)
	}
	body.AppendChild(container)
	if searchable {
		sub.SearchJS = search.Build(res).JS(trigger)
		injectScript(page, sub.SearchJS)
	}
	sub.Doc = page
}

func layoutDoc(doc *dom.Node, width int, sheets *css.Sheets) *layout.Result {
	styler := css.StylerForDocument(doc, sheets)
	return layout.Layout(doc, styler, layout.Viewport{Width: width})
}

func injectScript(doc *dom.Node, code string) {
	body := doc.Body()
	if body == nil {
		return
	}
	script := dom.NewElement("script")
	script.SetAttr("type", "text/javascript")
	script.AppendChild(dom.NewText(code))
	body.AppendChild(script)
}

func itoa(v int) string { return fmt.Sprintf("%d", v) }

// SubpageFileName returns the file name of a subpage's HTML page within
// a build product.
func SubpageFileName(name string) string {
	return "sub_" + sanitize(name) + ".html"
}

// AssetFileName returns the file name of a subpage's rendered image: the
// one name its page references and its Bundle stores it under. The
// extension follows the MIME type the image was encoded as.
func AssetFileName(sub *Subpage) string {
	if sub.ImageMIME == "image/png" {
		return sanitize(sub.Name) + ".png"
	}
	return sanitize(sub.Name) + ".jpg"
}

func sanitize(name string) string {
	var b strings.Builder
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-', r == '_':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// ComplexityOf summarizes a document for the device performance model.
func ComplexityOf(doc *dom.Node, totalBytes, requests int) DocComplexity {
	c := DocComplexity{Bytes: totalBytes, Requests: requests}
	doc.Walk(func(n *dom.Node) bool {
		if n.Type != dom.ElementNode {
			return true
		}
		c.Elements++
		switch n.Tag {
		case "script":
			if n.HasAttr("src") {
				c.Scripts++
			}
		case "img":
			c.Images++
		case "style":
			c.StyleRules += len(css.ParseStylesheet(css.StyleSource(n)).Rules)
		}
		return true
	})
	return c
}

// DocComplexity mirrors device.PageComplexity without importing it (attr
// stays independent of the simulation layer).
type DocComplexity struct {
	Bytes      int
	Requests   int
	Elements   int
	Scripts    int
	Images     int
	StyleRules int
}
