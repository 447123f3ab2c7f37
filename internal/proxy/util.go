package proxy

import (
	"context"
	"image"
	"net/http"
	"net/url"
	"strings"

	"msite/internal/attr"
	"msite/internal/css"
	"msite/internal/dom"
	"msite/internal/fetch"
	"msite/internal/html"
	"msite/internal/imaging"
	"msite/internal/layout"
)

// queryParam is the first value of a query parameter of r; a request
// without a query is not parsed for one.
func queryParam(r *http.Request, key string) string {
	if r.URL.RawQuery == "" {
		return ""
	}
	return r.URL.Query().Get(key)
}

// tidyDoc parses filtered source into a normalized document.
func tidyDoc(src string) *dom.Node {
	return html.Tidy(src)
}

// layoutForDoc lays out a document at the proxy's render width, its
// stylesheets parsed through sheets.
func layoutForDoc(doc *dom.Node, width int, sheets *css.Sheets) *layout.Result {
	styler := css.StylerForDocument(doc, sheets)
	return layout.Layout(doc, styler, layout.Viewport{Width: width})
}

// pageHTML serializes the adapted main document.
func pageHTML(result *attr.Result) []byte {
	return []byte(html.Render(result.Doc))
}

// maxRenderImages bounds per-page image downloads.
const maxRenderImages = 48

// fetchImages downloads and decodes the images a render of doc needs,
// keyed by the src attribute value as written (the key the rasterizer
// looks up). Discovery walks the DOM once, the downloads run through
// the fetcher's bounded worker pool (aborting when ctx ends), and
// decoding (plus the map build) stays serial. Undecodable or
// unfetchable images are skipped — the renderer falls back to
// placeholders.
func fetchImages(ctx context.Context, f *fetch.Fetcher, doc *dom.Node, base string) map[string]image.Image {
	baseURL, err := url.Parse(base)
	if err != nil {
		return nil
	}
	var srcs, absURLs []string
	seen := make(map[string]bool)
	doc.Walk(func(n *dom.Node) bool {
		if n.Type != dom.ElementNode || n.Tag != "img" || len(srcs) >= maxRenderImages {
			return true
		}
		src := n.AttrOr("src", "")
		if src == "" || strings.HasPrefix(src, "data:") || seen[src] {
			return true
		}
		abs, err := baseURL.Parse(src)
		if err != nil {
			return true
		}
		seen[src] = true
		srcs = append(srcs, src)
		absURLs = append(absURLs, abs.String())
		return true
	})
	images := make(map[string]image.Image)
	for i, res := range f.FetchAllContext(ctx, absURLs, 0) {
		if res.Err != nil {
			continue
		}
		decoded, err := imaging.Decode(res.Page.Body)
		if err != nil {
			continue
		}
		// Key by the attribute as written and by its absolute form: the
		// URL-anchoring pass rewrites srcs to absolute before the
		// snapshot render looks them up.
		images[srcs[i]] = decoded
		images[absURLs[i]] = decoded
	}
	return images
}
