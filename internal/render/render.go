// Package render holds the engines a subpage can be served through besides
// its HTML — the paper's pluggable content adaptation, "multiple rendering
// engines to produce HTML, static images, PDF, plain text ... at any point
// in the rendering process" (§1): plain text, PDF, and a raster image at
// each fidelity level.
package render

import (
	"fmt"
	"strings"

	"msite/internal/css"
	"msite/internal/dom"
	"msite/internal/imaging"
	"msite/internal/layout"
	"msite/internal/progressive"
)

// Engine converts a document to one output representation.
type Engine interface {
	// MIME is the produced content type.
	MIME() string
	// Render produces the output bytes for doc at the given viewport.
	Render(doc *dom.Node, vp layout.Viewport) ([]byte, error)
}

// engines are the built-in engines by the name Lookup takes.
var engines = map[string]Engine{
	"text":         TextEngine{},
	"pdf":          PDFEngine{},
	"image/high":   ImageEngine{Fidelity: imaging.FidelityHigh},
	"image/medium": ImageEngine{Fidelity: imaging.FidelityMedium},
	"image/low":    ImageEngine{Fidelity: imaging.FidelityLow},
	"image/thumb":  ImageEngine{Fidelity: imaging.FidelityThumb},
}

// Lookup returns the engine named name: "text", "pdf", or "image/" and a
// fidelity level.
func Lookup(name string) (Engine, error) {
	e, ok := engines[name]
	if !ok {
		return nil, fmt.Errorf("render: no engine %q", name)
	}
	return e, nil
}

// TextEngine extracts readable plain text, one line per block-level run
// of content.
type TextEngine struct{}

var _ Engine = TextEngine{}

// MIME implements Engine.
func (TextEngine) MIME() string { return "text/plain; charset=utf-8" }

// Render implements Engine.
func (TextEngine) Render(doc *dom.Node, _ layout.Viewport) ([]byte, error) {
	return []byte(ExtractText(doc)), nil
}

// ExtractText renders the document to plain text with block boundaries
// as newlines and collapsed whitespace.
func ExtractText(doc *dom.Node) string {
	var lines []string
	var cur strings.Builder
	flush := func() {
		line := strings.Join(strings.Fields(cur.String()), " ")
		if line != "" {
			lines = append(lines, line)
		}
		cur.Reset()
	}
	var walk func(n *dom.Node)
	walk = func(n *dom.Node) {
		switch n.Type {
		case dom.TextNode:
			cur.WriteString(n.Data)
			cur.WriteByte(' ')
			return
		case dom.ElementNode:
			if css.DefaultDisplay(n.Tag) == "none" {
				return
			}
			if n.Tag == "br" {
				flush()
				return
			}
		}
		isBlock := n.Type == dom.ElementNode && css.DefaultDisplay(n.Tag) != "inline"
		if isBlock {
			flush()
		}
		for c := n.FirstChild; c != nil; c = c.NextSibling {
			walk(c)
		}
		if isBlock {
			flush()
		}
	}
	walk(doc)
	flush()
	return strings.Join(lines, "\n") + "\n"
}

// ImageEngine renders the page to a raster snapshot at a fidelity level.
type ImageEngine struct {
	Fidelity imaging.Fidelity
}

var _ Engine = ImageEngine{}

// MIME implements Engine.
func (e ImageEngine) MIME() string { return e.Fidelity.MIME() }

// Render implements Engine.
func (e ImageEngine) Render(doc *dom.Node, vp layout.Viewport) ([]byte, error) {
	res := layout.Layout(doc, css.StylerForDocument(doc), vp)
	out, err := progressive.Render(res, progressive.Config{Fidelity: e.Fidelity})
	if err != nil {
		return nil, err
	}
	return out.Data, nil
}
