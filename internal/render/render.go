// Package render is the server-side rendering facade of m.Site — the role
// the embedded WebKit plays in the paper's prototype (§3.2). It turns
// HTML+CSS into laid-out, rasterized snapshots with a per-element
// coordinate index, and exposes a pluggable engine registry that can emit
// HTML, plain text, static images, or PDF "at any point in the rendering
// process" (§1, pluggable content adaptation).
package render

import (
	"errors"
	"fmt"
	"image"
	"sort"
	"strings"
	"sync"
	"time"

	"msite/internal/css"
	"msite/internal/dom"
	"msite/internal/html"
	"msite/internal/imaging"
	"msite/internal/layout"
	"msite/internal/obs"
	"msite/internal/progressive"
	"msite/internal/raster"
)

// Snapshot is a fully rendered page: pixels plus the layout geometry
// needed to build image maps and searchable overlays.
type Snapshot struct {
	Doc    *dom.Node
	Layout *layout.Result
	Image  *image.RGBA
}

// Region returns the pixel rectangle of an element in the snapshot.
func (s *Snapshot) Region(n *dom.Node) (x, y, w, h int, ok bool) {
	return s.Layout.Region(n)
}

// Renderer renders documents at a fixed viewport.
type Renderer struct {
	// Viewport is the layout width; zero uses layout.DefaultViewport.
	Viewport layout.Viewport
	// Obs, when non-nil, records layout and raster stage latencies into
	// the msite_stage_seconds histogram family.
	Obs *obs.Registry
}

// New returns a Renderer for the given viewport width.
func New(width int) *Renderer {
	return &Renderer{Viewport: layout.Viewport{Width: width}}
}

// RenderHTML tidies, parses, styles, lays out, and paints HTML source.
func (r *Renderer) RenderHTML(src string) (*Snapshot, error) {
	doc := html.Tidy(src)
	return r.RenderDoc(doc)
}

// RenderDoc renders an already-parsed document. The document is not
// modified.
func (r *Renderer) RenderDoc(doc *dom.Node) (*Snapshot, error) {
	if doc == nil {
		return nil, errors.New("render: nil document")
	}
	styler := css.StylerForDocument(doc)
	start := time.Now()
	res := layout.Layout(doc, styler, r.Viewport)
	r.observeStage("layout", time.Since(start))
	start = time.Now()
	img := raster.Paint(res, raster.Options{})
	r.observeStage("raster", time.Since(start))
	return &Snapshot{Doc: doc, Layout: res, Image: img}, nil
}

func (r *Renderer) observeStage(stage string, d time.Duration) {
	if r.Obs == nil {
		return
	}
	r.Obs.Histogram(obs.StageHistogram, "stage", stage).ObserveDuration(d)
}

// Engine converts a document to one output representation.
type Engine interface {
	// Name is the registry key, e.g. "image/low".
	Name() string
	// MIME is the produced content type.
	MIME() string
	// Render produces the output bytes for doc at the given viewport.
	Render(doc *dom.Node, vp layout.Viewport) ([]byte, error)
}

// EngineSet is a registry of named rendering engines. The zero value is
// empty; NewEngineSet returns one preloaded with the built-in engines.
type EngineSet struct {
	mu      sync.RWMutex
	engines map[string]Engine
}

// NewEngineSet returns a registry with the built-in engines: html, text,
// pdf, and one image engine per fidelity level.
func NewEngineSet() *EngineSet {
	es := &EngineSet{engines: make(map[string]Engine)}
	es.Register(HTMLEngine{})
	es.Register(TextEngine{})
	es.Register(PDFEngine{})
	for _, f := range []imaging.Fidelity{
		imaging.FidelityHigh, imaging.FidelityMedium,
		imaging.FidelityLow, imaging.FidelityThumb,
	} {
		es.Register(ImageEngine{Fidelity: f})
	}
	return es
}

// Register adds or replaces an engine under its name.
func (es *EngineSet) Register(e Engine) {
	es.mu.Lock()
	defer es.mu.Unlock()
	if es.engines == nil {
		es.engines = make(map[string]Engine)
	}
	es.engines[e.Name()] = e
}

// Get returns the named engine.
func (es *EngineSet) Get(name string) (Engine, error) {
	es.mu.RLock()
	defer es.mu.RUnlock()
	e, ok := es.engines[name]
	if !ok {
		return nil, fmt.Errorf("render: no engine %q", name)
	}
	return e, nil
}

// Names returns the registered engine names, sorted.
func (es *EngineSet) Names() []string {
	es.mu.RLock()
	defer es.mu.RUnlock()
	names := make([]string, 0, len(es.engines))
	for name := range es.engines {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// HTMLEngine emits well-formed XHTML.
type HTMLEngine struct{}

var _ Engine = HTMLEngine{}

// Name implements Engine.
func (HTMLEngine) Name() string { return "html" }

// MIME implements Engine.
func (HTMLEngine) MIME() string { return "text/html; charset=utf-8" }

// Render implements Engine.
func (HTMLEngine) Render(doc *dom.Node, _ layout.Viewport) ([]byte, error) {
	return []byte(html.RenderXHTML(doc)), nil
}

// TextEngine extracts readable plain text, one line per block-level run
// of content.
type TextEngine struct{}

var _ Engine = TextEngine{}

// Name implements Engine.
func (TextEngine) Name() string { return "text" }

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

// Name implements Engine.
func (e ImageEngine) Name() string { return "image/" + e.Fidelity.String() }

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
