package raster

import (
	"encoding/binary"
	"image"
	"image/color"

	"msite/internal/imaging"
)

// A fill is one rectangle of a window, clipped to it: columns [x0, x1) of
// the band, counted from its left edge, and rows [y0, y1) of the window.
// It paints v, a colour as imaging's little-endian pixel word, or, for an
// image, the pixels of the scene's blit v.
type fill struct {
	x0, x1 int32
	v      uint32
	y0, y1 uint8
	image  bool
}

// A recorder is one worker's view of the band it is painting. It records
// a window of at most rows of the band's rows at a time: the fills of every
// primitive that touches the window, in paint order, and a row index over
// them. It resolves the window a row at a time into spans of one colour.
// Its storage is sized once from the window and doubles only when a window
// overflows it.
type recorder struct {
	scene *scene
	rows  int             // the most rows a window holds
	band  image.Rectangle // the rectangle of the frame being resolved
	clip  image.Rectangle // the window: rows of the band, recorded
	fills []fill
	// start and idx are the row index: the fills of the window's row y are
	// fills[k] for k in idx[start[y]:start[y+1]], in paint order. Both are
	// cut from index.
	index, start, idx []int32
	row               []imaging.Span // the row being resolved
	jitter            []imaging.Span // the row with the antialias jitter
}

// maxWindowRows is the most rows a recorder holds: a band of bandRows
// source rows is one window at any scale down to 1/4, and a band of more
// is resolved a window at a time, so what a worker allocates does not
// grow as the scale shrinks.
const maxWindowRows = 4 * bandRows

// newRecorder returns the recorder of bands sw columns wide and about rows
// rows tall, with room for a fill every 16 pixels of a window and a row
// index entry every 11: the densest band of the forum's entry page holds
// one every 25 and 16.
func newRecorder(s *scene, sw, rows int) *recorder {
	rows = min(rows, maxWindowRows)
	n := max(sw*rows/16, 64)
	rec := &recorder{scene: s, rows: rows, fills: make([]fill, 0, n), index: make([]int32, rows+1+3*n/2),
		row: make([]imaging.Span, 0, sw)}
	if s.opts.Antialias {
		rec.jitter = make([]imaging.Span, 0, sw)
	}
	return rec
}

// begin starts resolving the rows of band, which is as wide as every band
// the recorder resolves.
func (rec *recorder) begin(band image.Rectangle) {
	rec.band, rec.clip = band, image.Rectangle{}
}

// record replaces the window with the fills that touch clip and indexes
// them by row.
func (rec *recorder) record(clip image.Rectangle) {
	rec.clip, rec.fills = clip, rec.fills[:0]
	if root := rec.scene.res.Root; root != nil {
		rec.paintBox(root)
	}
	rec.indexRows()
}

// indexRows builds the row index over the window's fills.
func (rec *recorder) indexRows() {
	rows := rec.clip.Dy()
	// start[y+1] counts, then indexes, the fills of row y: first as a
	// difference array over the rows, then as the offset of the row's
	// first entry, which the fill pass advances to its end.
	start := rec.index[:rows+1]
	clear(start)
	for _, f := range rec.fills {
		start[f.y0+1]++
		if int(f.y1) < rows {
			start[f.y1+1]--
		}
	}
	var total, run int32
	for y := 1; y <= rows; y++ {
		run += start[y]
		start[y] = total
		total += run
	}
	if n := len(rec.index); n < rec.rows+1+int(total) {
		for n < rec.rows+1+int(total) {
			n *= 2
		}
		grown := make([]int32, n)
		copy(grown, start)
		rec.index = grown
	}
	rec.start, rec.idx = rec.index[:rows+1], rec.index[rec.rows+1:]
	for k, f := range rec.fills {
		for y := int(f.y0) + 1; y <= int(f.y1); y++ {
			rec.idx[rec.start[y]] = int32(k)
			rec.start[y]++
		}
	}
}

// add records a fill of the rectangle x, y, w, h of the frame, clipped to
// the window: of the colour v, or of the blit v when image is set.
func (rec *recorder) add(x, y, w, h int, v uint32, image bool) {
	x0, y0 := max(x, rec.clip.Min.X), max(y, rec.clip.Min.Y)
	x1, y1 := min(x+w, rec.clip.Max.X), min(y+h, rec.clip.Max.Y)
	if x0 >= x1 || y0 >= y1 {
		return
	}
	if len(rec.fills) == cap(rec.fills) {
		grown := make([]fill, len(rec.fills), 2*cap(rec.fills))
		copy(grown, rec.fills)
		rec.fills = grown
	}
	left, top := rec.clip.Min.X, rec.clip.Min.Y
	rec.fills = append(rec.fills, fill{x0: int32(x0 - left), x1: int32(x1 - left), v: v,
		y0: uint8(y0 - top), y1: uint8(y1 - top), image: image})
}

// fillRect paints the rectangle x, y, w, h of the frame in c.
func (rec *recorder) fillRect(x, y, w, h int, c color.RGBA) {
	rec.add(x, y, w, h, uint32(c.R)|uint32(c.G)<<8|uint32(c.B)<<16|uint32(c.A)<<24, false)
}

// resolve returns row y of the band as spans, columns counted from the
// band's left edge: the scene's background with the row's fills spliced
// over it in paint order, neighbours of one colour merged, and the
// antialias jitter applied when the scene asks for it. A row outside the
// window starts the next: the band's rows from y, at most rows of them.
// The spans are valid until the next call.
func (rec *recorder) resolve(y int) []imaging.Span {
	if y < rec.clip.Min.Y || y >= rec.clip.Max.Y {
		rec.record(image.Rect(rec.band.Min.X, y, rec.band.Max.X, min(y+rec.rows, rec.band.Max.Y)))
	}
	s := rec.scene
	row := append(rec.row[:0], imaging.Span{End: int32(rec.clip.Dx()), C: s.bg})
	yw := y - rec.clip.Min.Y
	for _, k := range rec.idx[rec.start[yw]:rec.start[yw+1]] {
		f := &rec.fills[k]
		if !f.image {
			row = paintSpan(row, f.x0, f.x1, color.RGBA{uint8(f.v), uint8(f.v >> 8), uint8(f.v >> 16), uint8(f.v >> 24)})
			continue
		}
		b := &s.blits[f.v]
		off := b.img.PixOffset(rec.clip.Min.X-b.x+int(f.x0), y-b.y)
		row = paintPixels(row, f.x0, f.x1, b.img.Pix[off:off+4*int(f.x1-f.x0)])
	}
	rec.row = row
	if s.opts.Antialias {
		rec.jitter = antialias(rec.jitter[:0], row, y, rec.clip.Min.X)
		return rec.jitter
	}
	return row
}

// paintSpan sets columns [x0, x1) of row to c.
func paintSpan(row []imaging.Span, x0, x1 int32, c color.RGBA) []imaging.Span {
	row, at := splice(row, x0, x1, 1)
	row[at] = imaging.Span{End: x1, C: c}
	return merge(merge(row, at), at-1)
}

// paintPixels sets columns [x0, x1) of row to the pixels pix, 4 bytes a
// column, one span a run of one colour.
func paintPixels(row []imaging.Span, x0, x1 int32, pix []uint8) []imaging.Span {
	n := int(x1 - x0)
	px := func(i int) uint32 { return binary.LittleEndian.Uint32(pix[4*i:]) }
	runs := 1
	for i := 1; i < n; i++ {
		if px(i) != px(i-1) {
			runs++
		}
	}
	row, at := splice(row, x0, x1, runs)
	k := at
	for i := 1; i <= n; i++ {
		if i == n || px(i) != px(i-1) {
			p := pix[4*(i-1):]
			row[k] = imaging.Span{End: x0 + int32(i), C: color.RGBA{p[0], p[1], p[2], p[3]}}
			k++
		}
	}
	return merge(merge(row, k-1), at-1)
}

// spanAt is the index of the span of row that holds column x.
func spanAt(row []imaging.Span, x int32) int {
	lo, hi := 0, len(row)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if row[m].End > x {
			hi = m
		} else {
			lo = m + 1
		}
	}
	return lo
}

// splice makes columns [x0, x1) of row k spans, which the caller writes
// into row[at:at+k], the last ending at x1. The parts of the spans it cuts
// that lie outside [x0, x1) stay. A row of w columns holds at most w
// spans, so it never outgrows a capacity of w.
func splice(row []imaging.Span, x0, x1 int32, k int) ([]imaging.Span, int) {
	i := spanAt(row, x0)
	j := i + spanAt(row[i:], x1-1)
	left, right := row[i], row[j]
	start := int32(0)
	if i > 0 {
		start = row[i-1].End
	}
	at := i
	if start < x0 {
		at++
	}
	keep := at + k // where the spans from row[j+1:] (and right's rest) go
	if right.End > x1 {
		keep++
	}
	tail := len(row) - j - 1
	row = row[:max(len(row), keep+tail)]
	copy(row[keep:], row[j+1:j+1+tail])
	row = row[:keep+tail]
	if at > i {
		row[i] = imaging.Span{End: x0, C: left.C}
	}
	if right.End > x1 {
		row[at+k] = right
	}
	return row, at
}

// merge joins row[i] and row[i+1] when both exist and have one colour.
func merge(row []imaging.Span, i int) []imaging.Span {
	if i < 0 || i+1 >= len(row) || row[i].C != row[i+1].C {
		return row
	}
	row[i].End = row[i+1].End
	return append(row[:i+1], row[i+2:]...)
}

// antialias appends to dst row y of the frame, given by row from column
// left, with a deterministic ~13% subset of its pixels perturbed by a
// couple of counts per channel — invisible to the eye, but it restores the
// entropy an antialiased rendering carries so the PNG/JPEG fidelity ladder
// matches real screenshot behaviour. The generator is seeded per row and
// stepped from the frame's column 0, so any band or region of the frame
// gets the bytes the whole frame would.
func antialias(dst, row []imaging.Span, y, left int) []imaging.Span {
	state := uint32(0x9e3779b9) ^ (uint32(y)*2654435761 + 1)
	// jittered reports whether the next pixel is perturbed.
	jittered := func() bool {
		state = state*1664525 + 1013904223
		return state>>24 <= 33
	}
	for x := 0; x < left; x++ {
		if jittered() {
			state = state*1664525 + 1013904223
			state = state*1664525 + 1013904223
			state = state*1664525 + 1013904223
		}
	}
	// A perturbed pixel is a span of its own, which may have the colour
	// of a neighbour: the fold and the expansion take such rows as well.
	var x, end int32 // end is where dst ends
	for _, s := range row {
		for ; x < s.End; x++ {
			if !jittered() {
				continue
			}
			p := [3]uint8{s.C.R, s.C.G, s.C.B}
			for ch, v := range p {
				state = state*1664525 + 1013904223
				delta := int(state>>30) - 1 // -1, 0, 1, 2
				p[ch] = uint8(min(max(int(v)+delta, 0), 255))
			}
			if x > end {
				dst = append(dst, imaging.Span{End: x, C: s.C})
			}
			dst = append(dst, imaging.Span{End: x + 1, C: color.RGBA{p[0], p[1], p[2], s.C.A}})
			end = x + 1
		}
		if s.End > end {
			dst = append(dst, imaging.Span{End: s.End, C: s.C})
			end = s.End
		}
	}
	return dst
}
