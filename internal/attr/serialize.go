package attr

import (
	"msite/internal/css"
	"msite/internal/dom"
	"msite/internal/html"
)

// SerializeSubpage renders a subpage document to HTML bytes. It is the
// last thing done to the document, and begins by dropping from every
// <style> the rules that can match no element of the subpage
// (css.Stylesheet.Prune): a dependency attribute clones a site's whole
// stylesheet into a subpage that uses a handful of its rules. A <style>
// left empty goes too. The sheets stay whole when StylesKeptWhole says
// the device can change the document under them.
func SerializeSubpage(sub *Subpage) []byte {
	if StylesKeptWhole(sub) == "" {
		pruneStyles(sub)
	}
	return []byte(html.Render(sub.Doc))
}

func pruneStyles(sub *Subpage) {
	styles := sub.Doc.Elements("style")
	if len(styles) == 0 {
		return
	}
	elems := sub.Doc.Elements("*")
	for _, style := range styles {
		pruned := sub.Sheets.Parse(css.StyleSource(style)).Prune(elems)
		if pruned == "" {
			style.Detach()
			continue
		}
		style.Empty()
		style.AppendChild(dom.NewText(pruned))
	}
}

// StylesKeptWhole says why SerializeSubpage will not prune the subpage's
// <style> elements, or "" when it will (or there are none). A rule is
// dead only against a document that stays as the server sees it, so the
// sheets ship whole when the subpage loads into the entry page's pane
// (ajax), or carries a script: the origin's, an inserted one, the search
// runtime, or the runtime that loads an action's response into the page.
func StylesKeptWhole(sub *Subpage) string {
	if len(sub.Doc.Elements("style")) == 0 {
		return ""
	}
	if sub.AJAX {
		return "it is loaded into the entry page (ajax)"
	}
	why := ""
	for _, script := range sub.Doc.Elements("script") {
		if script.AttrOr("data-msite", "") == "runtime" {
			return "an action loads responses into it"
		}
		why = "it carries a script"
	}
	return why
}
