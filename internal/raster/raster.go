// Package raster paints a laid-out box tree into an image.RGBA. Together
// with layout it forms the server-side rendering engine that replaces the
// paper's embedded WebKit: backgrounds, borders, replaced-element
// placeholders and images, and real bitmap text, all in pure Go.
//
// Everything it paints is a rectangle of one colour, or an image's row of
// pixels, laid over what was painted before. So it paints in bands of
// rows, and a band is only the list of fills that touch it, in paint
// order, clipped to it. Each row of a band is resolved from its fills into
// spans of one colour (imaging.Span): a row of the forum's entry page is
// 32 of them on average. A band that is scaled down is folded a span at a
// time (imaging.BoxFilter.AddSpans), and only an unscaled one, as Paint's
// frame is, is expanded into pixels.
package raster

import (
	"image"
	"image/color"
	"runtime"
	"sync"
	"sync/atomic"

	"msite/internal/css"
	"msite/internal/dom"
	"msite/internal/imaging"
	"msite/internal/layout"
)

// Options configures painting.
type Options struct {
	// Background is the page background; defaults to white.
	Background color.RGBA
	// MinHeight pads the canvas to at least this many pixels tall.
	MinHeight int
	// SkipText suppresses text runs, painting only boxes, borders, and
	// placeholders. Partial CSS pre-rendering (§3.3) uses this to build
	// the background image the device overlays text onto.
	SkipText bool
	// Antialias applies a deterministic sub-perceptual jitter after
	// painting, modeling the pixel-level entropy of a real browser's
	// antialiased rendering. Without it the synthetic flat-color output
	// compresses unrealistically well in PNG, inverting the paper's
	// image-fidelity relationship; the experiments enable it so encoded
	// sizes behave like real screenshots.
	Antialias bool
	// Images maps <img src> attribute values (as written, or absolute) to
	// decoded images. Replaced elements whose src resolves here paint the
	// real pixels, scaled to the box; everything else gets the
	// placeholder. The proxy fills this from the subresources it
	// downloads on the client's behalf (§3.2).
	Images map[string]image.Image
	// Workers is the number of goroutines painting horizontal bands of
	// the framebuffer. 0 uses GOMAXPROCS;
	// 1 forces the serial path. Output is byte-identical for every
	// worker count: each band paints exactly the primitives that
	// intersect it, clipped to its rows.
	Workers int
}

// BandFunc consumes one horizontal band of rows: an image whose bounds are
// the band's rows. Its pixels are reused as soon as the call returns.
type BandFunc func(band *image.RGBA)

// bandRows is the height, in source rows, of the bands a paint is cut
// into: each band walks the box tree once, which stays far below the cost
// of resolving and folding its rows.
const bandRows = 16

// Paint rasterizes a layout result into a new RGBA image, in bands spread
// over the workers. The frame's backing array may come from a recycled
// pool; callers that are done with the image can hand it back with
// Release.
func Paint(res *layout.Result, opts Options) *image.RGBA {
	w, h := FrameSize(res, opts)
	img := imaging.GetRGBA(w, h)
	paintBands(res, opts, img, img.Rect, w, h, bandRows, func(*image.RGBA) {})
	return img
}

// PaintBands paints the part of res's frame inside r, and nothing else,
// without ever holding it. When w×h is not the size of r clipped to the
// frame, that rectangle is box-filtered (imaging.BoxFilter) to w×h as it is
// painted. onBand gets the w×h image in bands top to bottom, each in a
// buffer owned by this call — a plain allocation dropped at return —
// while later bands are still being painted; the bounds of an unscaled
// band are its rows of the frame, those of a scaled one its rows of the
// w×h image. A band is painted as the list of fills of the primitives
// that touch it, clipped to it; each of its source rows is resolved from
// them into spans of one colour, which a scaled band folds as spans and
// an unscaled one expands into pixels. Laid end to end the bands are that
// rectangle of Paint's frame, scaled, byte for byte, for every worker
// count: each band paints exactly the primitives that intersect it, the
// antialias jitter is seeded per row, and a scaled band is folded from the
// source rows of whole destination rows.
func PaintBands(res *layout.Result, opts Options, r image.Rectangle, w, h int, onBand BandFunc) {
	fw, fh := FrameSize(res, opts)
	paintBands(res, opts, nil, r.Intersect(image.Rect(0, 0, fw, fh)), w, h, bandRows, onBand)
}

// paintBands is the one band loop over r, whose output is w×h: bands of
// about rows source rows, each cut on a destination-row boundary. A worker
// records a band's fills and resolves its rows into its rows of frame, or
// into a slot of a ring of workers+1, folding them into the slot when the
// output is scaled. A slot is valid only until onBand returns. Bands are
// delivered strictly in order: band i+1 may finish first, but the consumer
// sees a top-to-bottom scanline stream.
func paintBands(res *layout.Result, opts Options, frame *image.RGBA, r image.Rectangle, w, h, rows int, onBand BandFunc) {
	if r.Empty() || w < 1 || h < 1 {
		return
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	sw, sh := r.Dx(), r.Dy()
	scaled := w != sw || h != sh
	srcRows := rows // the most source rows a band covers
	if scaled {
		rows = max(rows*h/sh, 1) // destination rows whose source rows are about rows
		srcRows = min(rows*sh/h+2, sh)
	}
	n := (h + rows - 1) / rows
	workers = min(workers, n)
	sc := newScene(res, opts, r)
	defer sc.release()
	// band is destination rows [i*rows, (i+1)*rows), in frame coordinates
	// when the output is not scaled.
	band := func(i int) image.Rectangle {
		b := image.Rect(0, i*rows, w, min((i+1)*rows, h))
		if !scaled {
			b = b.Add(r.Min)
		}
		return b
	}
	// newRender returns what renders band i into a slot for one worker,
	// which alone uses the recorder and filter state it allocates.
	newRender := func() func(i int, slot *image.RGBA) {
		rec := newRecorder(sc, sw, srcRows)
		if !scaled {
			return func(i int, slot *image.RGBA) {
				slot.Rect = band(i)
				if frame != nil {
					slot.Pix, slot.Stride = frame.Pix[frame.PixOffset(slot.Rect.Min.X, slot.Rect.Min.Y):], frame.Stride
				}
				rec.begin(slot.Rect)
				for y := slot.Rect.Min.Y; y < slot.Rect.Max.Y; y++ {
					imaging.ExpandSpans(slot.Pix[slot.PixOffset(slot.Rect.Min.X, y):], rec.resolve(y))
				}
			}
		}
		filter := imaging.NewBoxFilter(w, h, sw, sh)
		return func(i int, slot *image.RGBA) {
			slot.Rect = band(i)
			sy0, sy1 := filter.SourceRows(slot.Rect.Min.Y, slot.Rect.Max.Y)
			rec.begin(image.Rect(r.Min.X, r.Min.Y+sy0, r.Max.X, r.Min.Y+sy1))
			for dy := slot.Rect.Min.Y; dy < slot.Rect.Max.Y; dy++ {
				y0, y1 := filter.SourceRows(dy, dy+1)
				for sy := y0; sy < y1; sy++ {
					filter.AddSpans(rec.resolve(r.Min.Y + sy))
				}
				filter.FlushSpans(slot.Pix[slot.PixOffset(0, dy):], y1-y0)
			}
		}
	}
	slotLen := 4 * w * rows
	if frame != nil {
		slotLen = 0
	}
	if workers <= 1 {
		render := newRender()
		slot := &image.RGBA{Pix: make([]uint8, slotLen), Stride: 4 * w}
		for i := range n {
			render(i, slot)
			onBand(slot)
		}
		return
	}

	// A worker takes a free slot before it takes the next band, so the
	// bands holding slots are always the lowest undelivered ones, at most
	// one a slot: band i can go to ring position i mod len(slots), whose
	// last band, i-len(slots), has been delivered, and the consumer never
	// waits on a band that cannot start.
	slots := make([]image.RGBA, workers+1)
	free := make(chan *image.RGBA, len(slots))
	ready := make([]chan *image.RGBA, len(slots))
	for k := range slots {
		slots[k] = image.RGBA{Pix: make([]uint8, slotLen), Stride: 4 * w}
		free <- &slots[k]
		ready[k] = make(chan *image.RGBA, 1)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			render := newRender()
			for slot := range free {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				render(i, slot)
				ready[i%len(ready)] <- slot
			}
		}()
	}
	for i := range n {
		slot := <-ready[i%len(ready)]
		onBand(slot)
		free <- slot
	}
	close(free)
	wg.Wait()
}

// A scene is what every band of one paint of res inside clip shares, read
// only: the background and the replaced-element images, each scaled once
// up front to its box, since a box spanning several bands must not re-run
// the (expensive) scale per band.
type scene struct {
	res   *layout.Result
	opts  Options
	bg    color.RGBA
	blits []blit
	// images maps a replaced element's box to the index of its blit.
	images map[*layout.Box]uint32
}

// A blit is an image scaled to its box, whose top-left pixel is at x, y
// of the frame.
type blit struct {
	img  *image.RGBA
	x, y int
}

func newScene(res *layout.Result, opts Options, clip image.Rectangle) *scene {
	s := &scene{res: res, opts: opts, bg: background(res, opts)}
	if res.Root != nil && len(opts.Images) > 0 {
		s.prescaleImages(res.Root, clip)
	}
	return s
}

// release recycles the scene's scaled images.
func (s *scene) release() {
	for _, b := range s.blits {
		imaging.PutRGBA(b.img)
	}
}

// FrameSize is the pixel size of the frame Paint allocates for res:
// consumers of PaintBands' bands dimension themselves from it before the
// first band arrives.
func FrameSize(res *layout.Result, opts Options) (w, h int) {
	return max(res.Width, 1), max(res.Height, opts.MinHeight, 1)
}

// background is the frame's fill: an explicit root background, else the
// configured one, else white.
func background(res *layout.Result, opts Options) color.RGBA {
	if res.Root != nil {
		if c, ok := css.ParseColor(res.Root.Style.Get("background-color", "")); ok && c.A > 0 {
			return c
		}
	}
	if opts.Background.A == 0 {
		return color.RGBA{255, 255, 255, 255}
	}
	return opts.Background
}

// Release recycles a frame returned by Paint once the caller has encoded
// or copied it. Nil-safe; the frame must not be used afterwards.
func Release(img *image.RGBA) { imaging.PutRGBA(img) }

// prescaleImages walks the box tree scaling the decoded image of every
// replaced element that shows inside clip to its box size.
func (s *scene) prescaleImages(b *layout.Box, clip image.Rectangle) {
	if b.Node != nil && b.Node.Type == dom.ElementNode && isReplaced(b.Node.Tag) && boxIntersects(b, clip) {
		if src, ok := b.Node.Attr("src"); ok && src != "" {
			if decoded, ok := s.opts.Images[src]; ok {
				w, h := int(b.W), int(b.H)
				if w > 0 && h > 0 {
					if s.images == nil {
						s.images = make(map[*layout.Box]uint32)
					}
					// Pooled scratch: ScaleInto writes every pixel, and
					// the scene recycles the buffer after painting.
					dst := imaging.GetRGBA(w, h)
					imaging.ScaleInto(dst, decoded)
					s.images[b] = uint32(len(s.blits))
					s.blits = append(s.blits, blit{img: dst, x: int(b.X), y: int(b.Y)})
				}
			}
		}
	}
	for _, c := range b.Children {
		s.prescaleImages(c, clip)
	}
}

// boxIntersects reports whether the box's own painted rectangle (the
// exact pixels paintBackground/paintBorders/paintPlaceholder touch)
// overlaps clip. Children are NOT covered: they may overflow the parent
// and are tested on their own during the walk.
func boxIntersects(b *layout.Box, clip image.Rectangle) bool {
	x, y, w, h := int(b.X), int(b.Y), int(b.W), int(b.H)
	return x < clip.Max.X && x+w > clip.Min.X && y < clip.Max.Y && y+h > clip.Min.Y
}

// runIntersects is a conservative clip test for one text run: the
// bounding rectangle is inflated past the glyph cell to cover the
// italic shear, the bold widening, and the underline rule, so a band
// never skips a run that would touch it.
func runIntersects(run layout.TextRun, clip image.Rectangle) bool {
	pad := int(layout.GlyphHeight(run.FontSize)) + 4
	x0 := int(run.X) - pad
	y0 := int(run.Y) - pad
	x1 := int(run.X+run.Width()) + pad
	y1 := int(run.Y+run.Height()) + pad
	return x0 < clip.Max.X && x1 > clip.Min.X && y0 < clip.Max.Y && y1 > clip.Min.Y
}

// paintBox records the fills of b and its descendants that touch the
// band, in paint order.
func (rec *recorder) paintBox(b *layout.Box) {
	clip := rec.clip
	if boxIntersects(b, clip) {
		rec.paintBackground(b)
		rec.paintBorders(b)
		if b.Node != nil && b.Node.Type == dom.ElementNode && isReplaced(b.Node.Tag) {
			if k, ok := rec.scene.images[b]; ok {
				rec.add(int(b.X), int(b.Y), int(b.W), int(b.H), k, true)
			} else {
				rec.paintPlaceholder(b)
			}
		}
	}
	if !rec.scene.opts.SkipText {
		for _, run := range b.Runs {
			if runIntersects(run, clip) {
				rec.paintRun(run)
			}
		}
	}
	for _, c := range b.Children {
		rec.paintBox(c)
	}
}

func isReplaced(tag string) bool {
	switch tag {
	case "img", "iframe", "embed", "object", "video", "canvas":
		return true
	}
	return false
}

func (rec *recorder) paintBackground(b *layout.Box) {
	c, ok := css.ParseColor(b.Style.Get("background-color", ""))
	if !ok || c.A == 0 {
		return
	}
	rec.fillRect(int(b.X), int(b.Y), int(b.W), int(b.H), c)
}

func (rec *recorder) paintBorders(b *layout.Box) {
	side := func(name string) (int, color.RGBA, bool) {
		style := b.Style.Get("border-"+name+"-style", "")
		if style == "" || style == "none" || style == "hidden" {
			return 0, color.RGBA{}, false
		}
		w, ok := css.ParseLength(b.Style.Get("border-"+name+"-width", "3"), 0)
		if !ok || w <= 0 {
			return 0, color.RGBA{}, false
		}
		c, ok := css.ParseColor(b.Style.Get("border-"+name+"-color", "black"))
		if !ok {
			c = color.RGBA{A: 255}
		}
		return int(w + 0.5), c, true
	}
	x, y, w, h := int(b.X), int(b.Y), int(b.W), int(b.H)
	if bw, c, ok := side("top"); ok {
		rec.fillRect(x, y, w, bw, c)
	}
	if bw, c, ok := side("bottom"); ok {
		rec.fillRect(x, y+h-bw, w, bw, c)
	}
	if bw, c, ok := side("left"); ok {
		rec.fillRect(x, y, bw, h, c)
	}
	if bw, c, ok := side("right"); ok {
		rec.fillRect(x+w-bw, y, bw, h, c)
	}
}

// paintPlaceholder draws the conventional replaced-element placeholder:
// a light box with a border and a diagonal cross, standing in for image
// bytes the renderer does not decode.
func (rec *recorder) paintPlaceholder(b *layout.Box) {
	x, y, w, h := int(b.X), int(b.Y), int(b.W), int(b.H)
	if w <= 0 || h <= 0 {
		return
	}
	fill := color.RGBA{203, 213, 225, 255}
	border := color.RGBA{100, 116, 139, 255}
	rec.fillRect(x, y, w, h, fill)
	rec.fillRect(x, y, w, 1, border)
	rec.fillRect(x, y+h-1, w, 1, border)
	rec.fillRect(x, y, 1, h, border)
	rec.fillRect(x+w-1, y, 1, h, border)
	// Diagonals.
	steps := max(w, h)
	for i := 0; i < steps; i++ {
		px := x + i*w/steps
		py := y + i*h/steps
		rec.fillRect(px, py, 1, 1, border)
		rec.fillRect(x+w-1-(px-x), py, 1, 1, border)
	}
}

func (rec *recorder) paintRun(run layout.TextRun) {
	scale := layout.GlyphScale(run.FontSize)
	x := run.X
	col := run.Color
	if col.A == 0 {
		col = color.RGBA{A: 255}
	}
	for _, r := range run.Text {
		rec.drawGlyph(glyphFor(r), x, run.Y, scale, col, run.Bold, run.Italic)
		x += layout.CharWidth(run.FontSize)
	}
	if run.Underline {
		thickness := int(scale)
		if thickness < 1 {
			thickness = 1
		}
		rec.fillRect(int(run.X), int(run.Y+run.Height())+1,
			int(run.Width()+0.5), thickness, col)
	}
}

// drawGlyph paints one 5x7 glyph scaled to the font size. Bold widens
// each column by one device pixel; italic shears columns rightward with
// height. A cell covers whole pixels, from the floor of its scaled corner;
// the set cells of a glyph row whose pixels touch or overlap are one fill
// of exactly the pixels they cover.
func (rec *recorder) drawGlyph(glyph [5]byte, x, y, scale float64, c color.RGBA, bold, italic bool) {
	for rowIdx := 0; rowIdx < layout.GlyphRows; rowIdx++ {
		py0 := y + float64(rowIdx)*scale
		hpx := max(int(py0+scale)-int(py0), 1)
		shear := 0.0
		if italic {
			shear = (float64(layout.GlyphRows-rowIdx) * scale) * 0.2
		}
		x0, x1 := 0, 0 // the pixels of the fill being merged; empty at first
		for colIdx := 0; colIdx < layout.GlyphCols; colIdx++ {
			if glyph[colIdx]&(1<<uint(rowIdx)) == 0 {
				continue
			}
			px0 := x + float64(colIdx)*scale + shear
			wpx := max(int(px0+scale)-int(px0), 1)
			if bold {
				wpx++
			}
			if x0 < x1 && int(px0) <= x1 {
				x1 = max(x1, int(px0)+wpx)
				continue
			}
			rec.fillRect(x0, int(py0), x1-x0, hpx, c)
			x0, x1 = int(px0), int(px0)+wpx
		}
		rec.fillRect(x0, int(py0), x1-x0, hpx, c)
	}
}
