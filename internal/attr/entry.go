package attr

import (
	"fmt"
	"strings"

	"msite/internal/ajax"
	"msite/internal/dom"
	"msite/internal/html"
)

// Overlay builds the mobile entry page (§4.3): a scaled snapshot of the
// full site overlaid with an image map whose regions link to the
// generated subpages, with coordinates implicitly translated for the
// scale factor.
type Overlay struct {
	// SnapshotURL is the snapshot image location.
	SnapshotURL string
	// Width and Height are the snapshot's scaled pixel dimensions; zero
	// when they are unknown, which omits them from the img.
	Width, Height int
	// Scale is the snapshot scale factor relative to the original
	// layout.
	Scale float64
	// Title is the entry page title.
	Title string
}

// BuildOverlay assembles the entry page (§4.3): the snapshot image
// under an image map with one region per subpage, in subpage order, AJAX
// subpages loading into an injected pane instead of navigating.
func (a *Applier) BuildOverlay(ov Overlay, subpages []*Subpage) []byte {
	var b strings.Builder
	b.Grow(2048)
	b.WriteString("<!DOCTYPE html><html><head>")
	titleEl := dom.NewElement("title")
	titleEl.AppendChild(dom.NewText(ov.Title))
	html.RenderTo(&b, titleEl)
	meta := dom.NewElement("meta")
	meta.SetAttr("name", "viewport")
	meta.SetAttr("content", "width=device-width, initial-scale=1")
	html.RenderTo(&b, meta)
	b.WriteString("</head><body>")
	img := dom.NewElement("img")
	img.SetAttr("src", ov.SnapshotURL)
	img.SetAttr("alt", ov.Title)
	img.SetAttr("usemap", "#msite-map")
	if ov.Width > 0 && ov.Height > 0 {
		img.SetAttr("width", itoa(ov.Width))
		img.SetAttr("height", itoa(ov.Height))
	}
	img.SetAttr("style", "border: 0")
	html.RenderTo(&b, img)
	b.WriteString(`<map name="msite-map">`)

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
		area.SetAttr("href", url)
		if sub.AJAX {
			hasAJAX = true
			area.SetAttr("onclick", "return msiteLoad('"+url+"');")
		}
		html.RenderTo(&b, area)
	}
	b.WriteString("</map>")

	if hasAJAX {
		pane := dom.NewElement("div")
		pane.SetAttr("id", "msite-pane")
		pane.SetAttr("style", "display: none; position: absolute; top: 20px; left: 5%; width: 90%; background-color: white; border: 2px solid #444444")
		html.RenderTo(&b, pane)
		script := dom.NewElement("script")
		script.SetAttr("type", "text/javascript")
		script.SetAttr("data-msite", "runtime")
		script.AppendChild(dom.NewText(ajax.ClientRuntimeJS))
		html.RenderTo(&b, script)
	}
	b.WriteString("</body></html>")
	return []byte(b.String())
}

// minimalSkip are subtrees the minimal-markup mode drops entirely:
// graphics, scripting, styling, embeds, and the overlay machinery.
var minimalSkip = map[string]bool{
	"script": true, "style": true, "img": true, "picture": true,
	"svg": true, "canvas": true, "iframe": true, "object": true,
	"embed": true, "video": true, "audio": true, "noscript": true,
	"map": true, "area": true, "form": true, "input": true,
	"select": true, "textarea": true, "button": true, "link": true,
	"meta": true, "head": true,
}

// minimalBlocks end the current text run when entered or left, so text
// separated by block structure stays separated in the output.
var minimalBlocks = map[string]bool{
	"p": true, "div": true, "li": true, "tr": true, "td": true,
	"th": true, "table": true, "ul": true, "ol": true, "dl": true,
	"dt": true, "dd": true, "section": true, "article": true,
	"header": true, "footer": true, "nav": true, "aside": true,
	"blockquote": true, "pre": true, "br": true, "hr": true,
	"figure": true, "figcaption": true, "main": true,
}

// MinimalMarkupHTML renders doc as MAML-style minimal markup: headings,
// text runs, and links only — no images, scripts, styles, or layout
// machinery. The output is the extreme low end of the fidelity ladder,
// sized for 2G-class links where even the snapshot is too heavy.
func MinimalMarkupHTML(title string, doc *dom.Node) []byte {
	var b strings.Builder
	b.WriteString("<!DOCTYPE html><html><head>")
	titleEl := dom.NewElement("title")
	titleEl.AppendChild(dom.NewText(title))
	b.WriteString(html.Render(titleEl))
	b.WriteString(`<meta name="viewport" content="width=device-width, initial-scale=1">`)
	b.WriteString("</head><body>")

	root := doc.Body()
	if root == nil {
		root = doc
	}
	var run strings.Builder
	flush := func() {
		if text := collapseSpace(run.String()); text != "" {
			b.WriteString("<p>")
			b.WriteString(html.EscapeText(text))
			b.WriteString("</p>")
		}
		run.Reset()
	}
	var walk func(n *dom.Node)
	walk = func(n *dom.Node) {
		switch n.Type {
		case dom.TextNode:
			run.WriteString(n.Data)
			return
		case dom.ElementNode:
		default:
			for c := n.FirstChild; c != nil; c = c.NextSibling {
				walk(c)
			}
			return
		}
		if minimalSkip[n.Tag] {
			return
		}
		switch n.Tag {
		case "h1", "h2", "h3", "h4", "h5", "h6":
			flush()
			if text := collapseSpace(n.Text()); text != "" {
				b.WriteString("<" + n.Tag + ">")
				b.WriteString(html.EscapeText(text))
				b.WriteString("</" + n.Tag + ">")
			}
			return
		case "a":
			if href, ok := n.Attr("href"); ok && href != "" {
				flush()
				text := collapseSpace(n.Text())
				if text == "" {
					text = href
				}
				b.WriteString(`<p><a href="` + html.EscapeAttr(href) + `">`)
				b.WriteString(html.EscapeText(text))
				b.WriteString("</a></p>")
				return
			}
		}
		block := minimalBlocks[n.Tag]
		if block {
			flush()
		}
		for c := n.FirstChild; c != nil; c = c.NextSibling {
			walk(c)
		}
		if block {
			flush()
		}
	}
	walk(root)
	flush()
	b.WriteString("</body></html>")
	return []byte(b.String())
}

// collapseSpace trims and collapses runs of whitespace to one space.
func collapseSpace(s string) string {
	return strings.Join(strings.Fields(s), " ")
}
