package raster

import (
	"bytes"
	"image"
	"image/color"
	"math/rand"
	"testing"

	"msite/internal/imaging"
	"msite/internal/layout"
)

// fillRectPixels is the painter's fill before it painted spans, kept as
// the reference for them: it sets every pixel of the rectangle x, y, w, h
// inside img's bounds to c.
func fillRectPixels(img *image.RGBA, x, y, w, h int, c color.RGBA) {
	bounds := img.Bounds()
	x0, y0 := max(x, bounds.Min.X), max(y, bounds.Min.Y)
	x1, y1 := min(x+w, bounds.Max.X), min(y+h, bounds.Max.Y)
	for py := y0; py < y1; py++ {
		for px := x0; px < x1; px++ {
			img.SetRGBA(px, py, c)
		}
	}
}

// FuzzSpanRow: any sequence of fills, clipped to a row as a recorder clips
// them, painted on a row of spans and expanded, is the same fills painted
// on a row of pixels; and so are runs of pixels an image paints. The row
// stays well formed: spans of at least one column, no two neighbours of
// one colour, the last ending at the row's width. The first byte of the
// input is the row's width; every 4 after it are a fill: its left column,
// offset so that fills may start left of the row, its width, its colour
// out of four, and whether it is a colour or the next bytes of the input
// as pixels.
func FuzzSpanRow(f *testing.F) {
	f.Add([]byte{40, 20, 10, 1, 0, 25, 5, 1, 0, 0, 200, 2, 0})
	f.Add([]byte{9, 16, 3, 0, 1, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Add([]byte{255, 0, 255, 3, 0, 30, 1, 0, 0, 31, 1, 0, 0, 29, 3, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		w := 1 + int(data[0])
		palette := []color.RGBA{{255, 255, 255, 255}, {0, 0, 0, 255}, {200, 10, 10, 128}, {0, 0, 0, 0}}
		pixels := image.NewRGBA(image.Rect(0, 0, w, 1))
		fillRectPixels(pixels, 0, 0, w, 1, palette[0])
		row := append(make([]imaging.Span, 0, w), imaging.Span{End: int32(w), C: palette[0]})
		for in := data[1:]; len(in) >= 4; in = in[4:] {
			x, n, c := int(in[0])-16, int(in[1]), palette[in[2]%4]
			x0, x1 := max(x, 0), min(x+n, w)
			if in[3]%2 == 0 {
				fillRectPixels(pixels, x, 0, n, 1, c)
				if x0 < x1 {
					row = paintSpan(row, int32(x0), int32(x1), c)
				}
			} else if x0 < x1 {
				pix := make([]uint8, 4*(x1-x0))
				copy(pix, in[4:])
				copy(pixels.Pix[4*x0:], pix)
				row = paintPixels(row, int32(x0), int32(x1), pix)
			}
			for i, s := range row {
				if i > 0 && (s.End <= row[i-1].End || s.C == row[i-1].C) || s.End <= 0 {
					t.Fatalf("malformed row %v", row)
				}
			}
			if len(row) > w || row[len(row)-1].End != int32(w) {
				t.Fatalf("row of %d spans ends at %d, width %d", len(row), row[len(row)-1].End, w)
			}
		}
		got := make([]uint8, 4*w)
		imaging.ExpandSpans(got, row)
		if !bytes.Equal(got, pixels.Pix) {
			t.Fatalf("spans %v expand to\n%v, pixels are\n%v", row, got, pixels.Pix)
		}
	})
}

// drawGlyphCells is drawGlyph before it merged cells, kept as the
// reference for it: one fill a set cell of the glyph.
func drawGlyphCells(img *image.RGBA, glyph [5]byte, x, y, scale float64, c color.RGBA, bold, italic bool) {
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
			fillRectPixels(img, int(px0), int(py0), wpx, hpx, c)
		}
	}
}

// TestGlyphRowsAreTheirCells: a glyph painted a fill per run of touching
// cells in a row is the glyph painted a fill per cell, for every glyph,
// bold and italic, at scales and offsets whose rounding makes neighbouring
// cells overlap, touch or leave a gap, clipped by the frame's edges.
func TestGlyphRowsAreTheirCells(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	frame := image.Rect(0, 0, 40, 36)
	rec := newRecorder(&scene{res: &layout.Result{}, bg: color.RGBA{255, 255, 255, 255}}, frame.Dx(), frame.Dy())
	ink := color.RGBA{10, 20, 30, 255}
	for r := rune(0x20); r <= 0x7f; r++ {
		for i := 0; i < 12; i++ {
			x, y, scale := rng.Float64()*50-12, rng.Float64()*40-10, 0.3+rng.Float64()*4
			bold, italic := rng.Intn(2) == 0, rng.Intn(2) == 0
			want := image.NewRGBA(frame)
			fillRectPixels(want, 0, 0, frame.Dx(), frame.Dy(), rec.scene.bg)
			drawGlyphCells(want, glyphFor(r), x, y, scale, ink, bold, italic)
			rec.clip, rec.fills = frame, rec.fills[:0]
			rec.drawGlyph(glyphFor(r), x, y, scale, ink, bold, italic)
			rec.indexRows()
			got := image.NewRGBA(frame)
			for row := frame.Min.Y; row < frame.Max.Y; row++ {
				imaging.ExpandSpans(got.Pix[got.PixOffset(0, row):], rec.resolve(row))
			}
			if !bytes.Equal(got.Pix, want.Pix) {
				t.Fatalf("%q at %.2f,%.2f scale %.2f bold %v italic %v: differs from its cells at %v",
					r, x, y, scale, bold, italic, firstPixelDiff(want, got))
			}
		}
	}
}
