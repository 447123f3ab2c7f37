package raster

import (
	"bytes"
	"image"
	"image/draw"
	"math/rand"
	"testing"

	"msite/internal/css"
	"msite/internal/html"
	"msite/internal/layout"
)

const streamTestPage = `<html><body>
	<div style="background-color: #336699; width: 200px; height: 60px"></div>
	<p>Hello streaming world, with enough text to paint several runs.</p>
	<div style="border: 2px solid red; width: 120px; height: 300px"></div>
	<p>More text below the fold so the frame spans many bands.</p>
</body></html>`

func streamLayout(t *testing.T, width int) *layout.Result {
	t.Helper()
	doc := html.Parse(streamTestPage)
	styler := css.StylerForDocument(doc)
	return layout.Layout(doc, styler, layout.Viewport{Width: width})
}

// clone copies an RGBA frame so a later paint cannot alias it through
// the frame pool.
func clone(img *image.RGBA) *image.RGBA {
	out := image.NewRGBA(img.Rect)
	copy(out.Pix, img.Pix)
	return out
}

func TestStreamPaintMatchesPaint(t *testing.T) {
	res := streamLayout(t, 320)
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"serial", Options{Workers: 1}},
		{"parallel", Options{Workers: 4}},
		{"default-workers", Options{}},
		{"antialias", Options{Workers: 3, Antialias: true}},
		{"many-workers", Options{Workers: 64}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want := clone(Paint(res, tc.opts))
			got := StreamPaint(res, tc.opts, func(*image.RGBA) {})
			if want.Rect != got.Rect {
				t.Fatalf("bounds: streamed %v, buffered %v", got.Rect, want.Rect)
			}
			if !bytes.Equal(want.Pix, got.Pix) {
				t.Fatal("StreamPaint frame differs from Paint")
			}
		})
	}
}

func TestStreamPaintDeliversOrderedFullCoverage(t *testing.T) {
	res := streamLayout(t, 320)
	var bands []image.Rectangle
	frame := StreamPaint(res, Options{Workers: 5}, func(view *image.RGBA) {
		bands = append(bands, view.Bounds())
	})
	if len(bands) == 0 {
		t.Fatal("no bands delivered")
	}
	b := frame.Bounds()
	nextY := b.Min.Y
	for i, r := range bands {
		if r.Min.X != b.Min.X || r.Max.X != b.Max.X {
			t.Fatalf("band %d spans x %d..%d, want %d..%d", i, r.Min.X, r.Max.X, b.Min.X, b.Max.X)
		}
		if r.Min.Y != nextY {
			t.Fatalf("band %d starts at y=%d, want %d (out of order or gapped)", i, r.Min.Y, nextY)
		}
		if r.Max.Y <= r.Min.Y {
			t.Fatalf("band %d is empty: %v", i, r)
		}
		nextY = r.Max.Y
	}
	if nextY != b.Max.Y {
		t.Fatalf("bands cover rows up to %d, frame ends at %d", nextY, b.Max.Y)
	}
}

func TestStreamPaintBandsAreFinalPixels(t *testing.T) {
	res := streamLayout(t, 320)
	opts := Options{Workers: 4}
	want := clone(Paint(res, opts))
	// Copy each band's pixels at delivery time; the stream must already
	// hold the final image content band by band.
	got := image.NewRGBA(want.Rect)
	StreamPaint(res, opts, func(view *image.RGBA) {
		r := view.Bounds()
		for y := r.Min.Y; y < r.Max.Y; y++ {
			i := view.PixOffset(r.Min.X, y)
			o := got.PixOffset(r.Min.X, y)
			copy(got.Pix[o:o+r.Dx()*4], view.Pix[i:i+r.Dx()*4])
		}
	})
	if !bytes.Equal(want.Pix, got.Pix) {
		t.Fatal("band-copied pixels differ from the final Paint frame")
	}
}

func TestStreamPaintNilBandFunc(t *testing.T) {
	res := streamLayout(t, 320)
	want := clone(Paint(res, Options{Workers: 2}))
	got := StreamPaint(res, Options{Workers: 2}, nil)
	if !bytes.Equal(want.Pix, got.Pix) {
		t.Fatal("nil onBand should degenerate to Paint")
	}
}

// TestPaintBandsMatchesPaint: laid end to end, the bands PaintBands hands
// over are Paint's frame — for random layouts, every worker count and any
// band height, including one row, heights that divide nothing evenly and
// one taller than the frame — and each is only valid until its callback
// returns, which the test honours by copying it out.
func TestPaintBandsMatchesPaint(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 4; trial++ {
		res, images := layoutRandomPage(t, rng)
		for _, antialias := range []bool{false, true} {
			opts := Options{Images: images, Antialias: antialias, MinHeight: 64, Workers: 1}
			want := clone(Paint(res, opts))
			for _, workers := range []int{1, 2, 0, 64} {
				for _, rows := range []int{1, 7, bandRows, want.Rect.Dy() + 10} {
					opts.Workers = workers
					got := image.NewRGBA(want.Rect)
					nextY := 0
					paintBands(res, opts, nil, rows, func(band *image.RGBA) {
						if band.Rect.Min.Y != nextY || band.Rect.Dx() != want.Rect.Dx() || band.Rect.Dy() > rows {
							t.Fatalf("band %v after row %d with %d-row bands", band.Rect, nextY, rows)
						}
						nextY = band.Rect.Max.Y
						draw.Draw(got, band.Rect, band, band.Rect.Min, draw.Src)
					})
					if nextY != want.Rect.Dy() {
						t.Fatalf("bands stopped at row %d of %d", nextY, want.Rect.Dy())
					}
					if !bytes.Equal(got.Pix, want.Pix) {
						t.Fatalf("trial %d antialias %v workers %d rows %d: bands differ from Paint at %v",
							trial, antialias, workers, rows, firstPixelDiff(want, got))
					}
				}
			}
		}
	}
}

// TestPaintRegionMatchesCropOfPaint: painting a rectangle of the page is
// cropping the whole page's paint to it, for random rectangles — which
// cut through text runs, borders and replaced images — and for ones that
// reach past the frame.
func TestPaintRegionMatchesCropOfPaint(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 8; trial++ {
		res, images := layoutRandomPage(t, rng)
		opts := Options{Images: images, Antialias: trial%2 == 1, Workers: 1}
		full := clone(Paint(res, opts))
		fw, fh := full.Rect.Dx(), full.Rect.Dy()
		for i := 0; i < 25; i++ {
			x, y := rng.Intn(fw)-20, rng.Intn(fh)-20
			r := image.Rect(x, y, x+1+rng.Intn(fw), y+1+rng.Intn(fh))
			got := PaintRegion(res, opts, r)
			if got.Rect != r.Intersect(full.Rect) {
				t.Fatalf("region %v painted as %v, frame %v", r, got.Rect, full.Rect)
			}
			want := image.NewRGBA(got.Rect)
			draw.Draw(want, want.Rect, full, want.Rect.Min, draw.Src)
			if !bytes.Equal(got.Pix, want.Pix) {
				t.Fatalf("trial %d region %v differs from the crop at %v", trial, r, firstPixelDiff(want, got))
			}
		}
	}
}
