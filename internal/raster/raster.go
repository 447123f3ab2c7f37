// Package raster paints a laid-out box tree into an image.RGBA. Together
// with layout it forms the server-side rendering engine that replaces the
// paper's embedded WebKit: backgrounds, borders, replaced-element
// placeholders, and real bitmap text, all in pure Go.
package raster

import (
	"image"
	"image/color"
	"image/draw"
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

// bandRows is the height, in source rows, of the bands PaintBands paints:
// a 1024 px wide band is 64 KB, yet walking the box tree once per band
// stays far below the cost of filling its pixels.
const bandRows = 16

// Paint rasterizes a layout result into a new RGBA image, one band per
// worker. The frame's backing array may come from a recycled pool;
// callers that are done with the image can hand it back with Release.
func Paint(res *layout.Result, opts Options) *image.RGBA {
	w, h := FrameSize(res, opts)
	img := imaging.GetRGBA(w, h)
	paintBands(res, opts, img, img.Rect, w, h, 0, func(*image.RGBA) {})
	return img
}

// PaintBands paints the part of res's frame inside r, and nothing else,
// without ever holding it. When w×h is not the size of r clipped to the
// frame, that rectangle is box-filtered (imaging.BoxFilter) to w×h as it is
// painted. onBand gets the w×h image in bands top to bottom, each in a
// buffer owned by this call — a plain allocation dropped at return —
// while later bands are still being painted; the bounds of an unscaled
// band are its rows of the frame, those of a scaled one its rows of the
// w×h image. Laid end to end the bands are that rectangle of Paint's
// frame, scaled, byte for byte, for every worker count: each band paints
// exactly the primitives that intersect it, clipped to it, the antialias
// jitter is seeded per row, and a scaled band is folded from the source
// rows of whole destination rows.
func PaintBands(res *layout.Result, opts Options, r image.Rectangle, w, h int, onBand BandFunc) {
	fw, fh := FrameSize(res, opts)
	paintBands(res, opts, nil, r.Intersect(image.Rect(0, 0, fw, fh)), w, h, bandRows, onBand)
}

// paintBands is the one band loop over r, whose output is w×h: bands of
// about rows source rows (0: one band per worker), each cut on a
// destination-row boundary. A worker paints a band into its rows of frame,
// or into a slot of a ring of workers+1; when the output is scaled it
// paints the band's source rows into a buffer of its own and folds them
// into the slot. A slot is valid only until onBand returns. Bands are
// delivered strictly in order: band i+1 may finish first, but the
// consumer sees a top-to-bottom scanline stream.
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
	switch {
	case rows <= 0:
		rows = (h + workers - 1) / workers
	case scaled:
		rows = max(rows*h/sh, 1) // destination rows whose source rows are about rows
	}
	n := (h + rows - 1) / rows
	workers = min(workers, n)
	paint, release := painter(res, opts, r)
	defer release()
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
	// which alone uses the source band and filter state it allocates.
	newRender := func() func(i int, slot *image.RGBA) {
		if !scaled {
			return func(i int, slot *image.RGBA) {
				slot.Rect = band(i)
				if frame != nil {
					slot.Pix, slot.Stride = frame.Pix[frame.PixOffset(slot.Rect.Min.X, slot.Rect.Min.Y):], frame.Stride
				}
				paint(slot)
			}
		}
		filter := imaging.NewBoxFilter(w, h, sw, sh)
		src := &image.RGBA{Pix: make([]uint8, 4*sw*min(rows*sh/h+2, sh)), Stride: 4 * sw}
		return func(i int, slot *image.RGBA) {
			slot.Rect = band(i)
			sy0, sy1 := filter.SourceRows(slot.Rect.Min.Y, slot.Rect.Max.Y)
			src.Rect = image.Rect(r.Min.X, r.Min.Y+sy0, r.Max.X, r.Min.Y+sy1)
			paint(src)
			filter.Fold(slot, src)
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

// painter returns the function every band of one paint of res inside clip
// shares, which paints the part of the frame a view covers, and the
// function that recycles what the first holds. Replaced-element
// images are scaled once up front: a box spanning several bands must not
// re-run the (expensive) scale per band, and the shared read-only map
// keeps bands independent.
func painter(res *layout.Result, opts Options, clip image.Rectangle) (paint func(*image.RGBA), release func()) {
	bg := &image.Uniform{C: background(res, opts)}
	var scaled map[*layout.Box]*image.RGBA
	if res.Root != nil {
		scaled = prescaleImages(res.Root, opts, clip, nil)
	}
	paint = func(view *image.RGBA) {
		// Fill edge to edge with the page background first, so recycled
		// memory's stale contents never show through.
		draw.Draw(view, view.Rect, bg, image.Point{}, draw.Src)
		if res.Root != nil {
			paintBox(view, res.Root, opts, scaled)
		}
		if opts.Antialias {
			applyAntialiasJitter(view)
		}
	}
	return paint, func() {
		for _, s := range scaled {
			imaging.PutRGBA(s)
		}
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

// applyAntialiasJitter perturbs a deterministic ~13% subset of pixels by
// a couple of counts per channel — invisible to the eye, but it restores
// the entropy an antialiased rendering carries so the PNG/JPEG fidelity
// ladder matches real screenshot behaviour. The generator is seeded per
// row and stepped from the frame's column 0, so any band or region of the
// frame gets the bytes the whole frame would.
func applyAntialiasJitter(img *image.RGBA) {
	b := img.Bounds()
	for y := b.Min.Y; y < b.Max.Y; y++ {
		state := uint32(0x9e3779b9) ^ (uint32(y)*2654435761 + 1)
		row := img.Pix[img.PixOffset(b.Min.X, y):img.PixOffset(b.Max.X, y)]
		for x := 0; x < b.Max.X; x++ {
			state = state*1664525 + 1013904223
			if state>>24 > 33 { // ~13% of pixels
				continue
			}
			for ch := 0; ch < 3; ch++ {
				state = state*1664525 + 1013904223
				if x < b.Min.X {
					continue
				}
				delta := int(state>>30) - 1 // -1, 0, 1, 2
				i := 4*(x-b.Min.X) + ch
				row[i] = uint8(min(max(int(row[i])+delta, 0), 255))
			}
		}
	}
}

// prescaleImages walks the box tree scaling the decoded image of every
// replaced element that shows inside clip to its box size, keyed by box.
// The returned map is read-only during painting, shared by every band
// worker.
func prescaleImages(b *layout.Box, opts Options, clip image.Rectangle, out map[*layout.Box]*image.RGBA) map[*layout.Box]*image.RGBA {
	if len(opts.Images) == 0 {
		return nil
	}
	if b.Node != nil && b.Node.Type == dom.ElementNode && isReplaced(b.Node.Tag) && boxIntersects(b, clip) {
		if src, ok := b.Node.Attr("src"); ok && src != "" {
			if decoded, ok := opts.Images[src]; ok {
				w, h := int(b.W), int(b.H)
				if w > 0 && h > 0 {
					if out == nil {
						out = make(map[*layout.Box]*image.RGBA)
					}
					// Pooled scratch: ScaleInto writes every pixel, and
					// the painter recycles the buffer after painting.
					dst := imaging.GetRGBA(w, h)
					imaging.ScaleInto(dst, decoded)
					out[b] = dst
				}
			}
		}
	}
	for _, c := range b.Children {
		out = prescaleImages(c, opts, clip, out)
	}
	return out
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

func paintBox(img *image.RGBA, b *layout.Box, opts Options, scaled map[*layout.Box]*image.RGBA) {
	clip := img.Bounds()
	if boxIntersects(b, clip) {
		paintBackground(img, b)
		paintBorders(img, b)
		if b.Node != nil && b.Node.Type == dom.ElementNode && isReplaced(b.Node.Tag) {
			if !paintRealImage(img, b, scaled) {
				paintPlaceholder(img, b)
			}
		}
	}
	if !opts.SkipText {
		for _, run := range b.Runs {
			if runIntersects(run, clip) {
				paintRun(img, run)
			}
		}
	}
	for _, c := range b.Children {
		paintBox(img, c, opts, scaled)
	}
}

// paintRealImage blits the pre-scaled source image into the box,
// returning false when no decoded image is available.
func paintRealImage(dst *image.RGBA, b *layout.Box, scaled map[*layout.Box]*image.RGBA) bool {
	src, ok := scaled[b]
	if !ok {
		return false
	}
	w, h := int(b.W), int(b.H)
	x0, y0 := int(b.X), int(b.Y)
	bounds := dst.Bounds()
	// Only walk the rows this view can accept — under banding that is
	// the strip, so total blit work stays ~constant across workers.
	yStart, yEnd := 0, h
	if y0 < bounds.Min.Y {
		yStart = bounds.Min.Y - y0
	}
	if y0+yEnd > bounds.Max.Y {
		yEnd = bounds.Max.Y - y0
	}
	for y := yStart; y < yEnd; y++ {
		for x := 0; x < w; x++ {
			px, py := x0+x, y0+y
			if px < bounds.Min.X || px >= bounds.Max.X || py < bounds.Min.Y || py >= bounds.Max.Y {
				continue
			}
			dst.SetRGBA(px, py, src.RGBAAt(x, y))
		}
	}
	return true
}

func isReplaced(tag string) bool {
	switch tag {
	case "img", "iframe", "embed", "object", "video", "canvas":
		return true
	}
	return false
}

func paintBackground(img *image.RGBA, b *layout.Box) {
	c, ok := css.ParseColor(b.Style.Get("background-color", ""))
	if !ok || c.A == 0 {
		return
	}
	fillRect(img, int(b.X), int(b.Y), int(b.W), int(b.H), c)
}

func paintBorders(img *image.RGBA, b *layout.Box) {
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
		fillRect(img, x, y, w, bw, c)
	}
	if bw, c, ok := side("bottom"); ok {
		fillRect(img, x, y+h-bw, w, bw, c)
	}
	if bw, c, ok := side("left"); ok {
		fillRect(img, x, y, bw, h, c)
	}
	if bw, c, ok := side("right"); ok {
		fillRect(img, x+w-bw, y, bw, h, c)
	}
}

// paintPlaceholder draws the conventional replaced-element placeholder:
// a light box with a border and a diagonal cross, standing in for image
// bytes the renderer does not decode.
func paintPlaceholder(img *image.RGBA, b *layout.Box) {
	x, y, w, h := int(b.X), int(b.Y), int(b.W), int(b.H)
	if w <= 0 || h <= 0 {
		return
	}
	fill := color.RGBA{203, 213, 225, 255}
	border := color.RGBA{100, 116, 139, 255}
	fillRect(img, x, y, w, h, fill)
	fillRect(img, x, y, w, 1, border)
	fillRect(img, x, y+h-1, w, 1, border)
	fillRect(img, x, y, 1, h, border)
	fillRect(img, x+w-1, y, 1, h, border)
	// Diagonals.
	steps := w
	if h > steps {
		steps = h
	}
	for i := 0; i < steps; i++ {
		px := x + i*w/steps
		py := y + i*h/steps
		setPx(img, px, py, border)
		setPx(img, x+w-1-(px-x), py, border)
	}
}

func paintRun(img *image.RGBA, run layout.TextRun) {
	scale := layout.GlyphScale(run.FontSize)
	x := run.X
	col := run.Color
	if col.A == 0 {
		col = color.RGBA{A: 255}
	}
	for _, r := range run.Text {
		glyph := glyphFor(r)
		drawGlyph(img, glyph, x, run.Y, scale, col, run.Bold, run.Italic)
		x += layout.CharWidth(run.FontSize)
	}
	if run.Underline {
		thickness := int(scale)
		if thickness < 1 {
			thickness = 1
		}
		fillRect(img, int(run.X), int(run.Y+run.Height())+1,
			int(run.Width()+0.5), thickness, col)
	}
}

// drawGlyph paints one 5x7 glyph scaled to the font size. Bold widens
// each column by one device pixel; italic shears columns rightward with
// height.
func drawGlyph(img *image.RGBA, glyph [5]byte, x, y, scale float64, c color.RGBA, bold, italic bool) {
	for colIdx := 0; colIdx < layout.GlyphCols; colIdx++ {
		bits := glyph[colIdx]
		for rowIdx := 0; rowIdx < layout.GlyphRows; rowIdx++ {
			if bits&(1<<uint(rowIdx)) == 0 {
				continue
			}
			px0 := x + float64(colIdx)*scale
			py0 := y + float64(rowIdx)*scale
			if italic {
				px0 += (float64(layout.GlyphRows-rowIdx) * scale) * 0.2
			}
			wpx := int(px0+scale) - int(px0)
			hpx := int(py0+scale) - int(py0)
			if wpx < 1 {
				wpx = 1
			}
			if hpx < 1 {
				hpx = 1
			}
			if bold {
				wpx++
			}
			fillRect(img, int(px0), int(py0), wpx, hpx, c)
		}
	}
}

func fillRect(img *image.RGBA, x, y, w, h int, c color.RGBA) {
	bounds := img.Bounds()
	x0, y0 := max(x, bounds.Min.X), max(y, bounds.Min.Y)
	x1, y1 := min(x+w, bounds.Max.X), min(y+h, bounds.Max.Y)
	for py := y0; py < y1; py++ {
		for px := x0; px < x1; px++ {
			img.SetRGBA(px, py, c)
		}
	}
}

func setPx(img *image.RGBA, x, y int, c color.RGBA) {
	if image.Pt(x, y).In(img.Bounds()) {
		img.SetRGBA(x, y, c)
	}
}
