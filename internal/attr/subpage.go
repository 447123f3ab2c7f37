package attr

import (
	"fmt"
	"strings"

	"msite/internal/css"
	"msite/internal/dom"
	"msite/internal/html"
	"msite/internal/imaging"
	"msite/internal/layout"
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
			res := layoutDoc(sub.Doc, width)
			sub.SearchJS = search.Build(res).JS(searchTrigger)
			injectScript(sub.Doc, sub.SearchJS)
		}
		return nil
	}

	res := layoutDoc(sub.Doc, width)

	if sub.PartialCSS {
		return a.finishPartialCSS(sub, res, searchable, searchTrigger)
	}

	// Full pre-render: the subpage becomes a single graphic (§3.3
	// "Pre-rendering"), optionally searchable via the word index.
	img := raster.Paint(res, raster.Options{Images: a.Images})
	data, err := imaging.Encode(img, sub.Fidelity)
	if err != nil {
		return fmt.Errorf("attr: pre-rendering subpage %q: %w", sub.Name, err)
	}
	sub.ImageData = data
	sub.ImageMIME = sub.Fidelity.MIME()

	assetName := sub.Name + sub.Fidelity.Ext()
	page := newSubpageDoc(sub.Title)
	body := page.Body()
	imgEl := dom.NewElement("img")
	imgEl.SetAttr("src", a.assetURL(assetName))
	imgEl.SetAttr("alt", sub.Title)
	imgEl.SetAttr("width", itoa(res.Width))
	imgEl.SetAttr("height", itoa(res.Height))
	body.AppendChild(imgEl)

	if searchable {
		sub.SearchJS = search.Build(res).JS(searchTrigger)
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

// finishPartialCSS implements §3.3 "Partial CSS rendering": the server
// renders the object's graphical component (backgrounds, borders, box
// art) with text suppressed, and the device draws the text at the
// measured coordinates over that background.
func (a *Applier) finishPartialCSS(sub *Subpage, res *layout.Result, searchable bool, trigger string) error {
	img := raster.Paint(res, raster.Options{SkipText: true, Images: a.Images})
	data, err := imaging.Encode(img, sub.Fidelity)
	if err != nil {
		return fmt.Errorf("attr: partial-css render of %q: %w", sub.Name, err)
	}
	sub.ImageData = data
	sub.ImageMIME = sub.Fidelity.MIME()

	assetName := sub.Name + sub.Fidelity.Ext()
	page := newSubpageDoc(sub.Title)
	body := page.Body()
	container := dom.NewElement("div")
	container.SetAttr("style", fmt.Sprintf(
		"position: relative; width: %dpx; height: %dpx; background-image: url(%s)",
		res.Width, res.Height, a.assetURL(assetName)))
	for _, run := range res.Runs() {
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
	return nil
}

func layoutDoc(doc *dom.Node, width int) *layout.Result {
	styler := css.StylerForDocument(doc)
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

// Overlay builds the mobile entry page (§4.3): a scaled snapshot of the
// full site overlaid with an image map whose regions link to the
// generated subpages, with coordinates implicitly translated for the
// scale factor.
type Overlay struct {
	// SnapshotURL is the snapshot image location.
	SnapshotURL string
	// Width and Height are the snapshot's scaled pixel dimensions.
	Width, Height int
	// Scale is the snapshot scale factor relative to the original
	// layout.
	Scale float64
	// Title is the entry page title.
	Title string
	// UpgradeURL, when set, is the full-fidelity snapshot location the
	// streamed overlay trades up to once the encode completes; the
	// SnapshotURL then points at the coarse first rung. Only the
	// streaming builder (BuildOverlayStream) emits the upgrade script.
	UpgradeURL string
}

// BuildOverlayHTML assembles the entry page document: the snapshot image
// wrapped in an image map with one region per subpage. AJAX subpages
// load into the injected pane instead of navigating.
func (a *Applier) BuildOverlayHTML(ov Overlay, subpages []*Subpage) []byte {
	doc := newSubpageDoc(ov.Title)
	body := doc.Body()

	img := dom.NewElement("img")
	img.SetAttr("src", ov.SnapshotURL)
	img.SetAttr("alt", ov.Title)
	img.SetAttr("usemap", "#msite-map")
	img.SetAttr("width", itoa(ov.Width))
	img.SetAttr("height", itoa(ov.Height))
	img.SetAttr("style", "border: 0")
	body.AppendChild(img)

	imageMap := dom.NewElement("map")
	imageMap.SetAttr("name", "msite-map")
	hasAJAX := false
	for _, sub := range subpages {
		if !sub.Region.Valid() || sub.Parent != "" {
			continue
		}
		r := sub.Region.Scale(ov.Scale)
		area := dom.NewElement("area")
		area.SetAttr("shape", "rect")
		area.SetAttr("coords", fmt.Sprintf("%d,%d,%d,%d", r.X, r.Y, r.X+r.W, r.Y+r.H))
		area.SetAttr("alt", sub.Title)
		url := a.subpageURL(sub.Name)
		if sub.AJAX {
			hasAJAX = true
			area.SetAttr("href", url)
			area.SetAttr("onclick", "return msiteLoad('"+url+"');")
		} else {
			area.SetAttr("href", url)
		}
		imageMap.AppendChild(area)
	}
	body.AppendChild(imageMap)

	if hasAJAX {
		pane := dom.NewElement("div")
		pane.SetAttr("id", "msite-pane")
		pane.SetAttr("style", "display: none; position: absolute; top: 20px; left: 5%; width: 90%; background-color: white; border: 2px solid #444444")
		body.AppendChild(pane)
		script := dom.NewElement("script")
		script.SetAttr("type", "text/javascript")
		script.SetAttr("data-msite", "runtime")
		script.AppendChild(dom.NewText(ajaxRuntime))
		body.AppendChild(script)
	}
	return []byte(html.Render(doc))
}

// ajaxRuntime mirrors ajax.ClientRuntimeJS; duplicated as a constant to
// keep the overlay self-contained even when no Action rewriting is
// configured.
const ajaxRuntime = `function msiteLoad(url) {
  var pane = document.getElementById('msite-pane');
  if (!pane) { window.location = url; return false; }
  var xhr = new XMLHttpRequest();
  xhr.open('GET', url, true);
  xhr.onreadystatechange = function () {
    if (xhr.readyState === 4 && xhr.status === 200) {
      pane.innerHTML = xhr.responseText;
      pane.style.display = 'block';
    }
  };
  xhr.send(null);
  return false;
}
`

// SubpageFileName returns the file name of a subpage's HTML page within
// a build product.
func SubpageFileName(name string) string {
	return "sub_" + sanitize(name) + ".html"
}

// AssetFileName returns the file name of a subpage's rendered image.
func AssetFileName(sub *Subpage) string {
	return sanitize(sub.Name) + sub.Fidelity.Ext()
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
			var src strings.Builder
			for t := n.FirstChild; t != nil; t = t.NextSibling {
				if t.Type == dom.TextNode {
					src.WriteString(t.Data)
				}
			}
			c.StyleRules += len(css.ParseStylesheet(src.String()).Rules)
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
