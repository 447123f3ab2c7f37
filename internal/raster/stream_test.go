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

// bandsOf lays the bands PaintBands hands over for r end to end in an
// image with r's bounds clipped to the frame, copying each out before its
// callback returns, and fails t unless they arrive top to bottom without
// a gap, each as wide as that rectangle and at most bandRows high.
func bandsOf(t *testing.T, res *layout.Result, opts Options, r image.Rectangle) *image.RGBA {
	t.Helper()
	w, h := FrameSize(res, opts)
	r = r.Intersect(image.Rect(0, 0, w, h))
	got := image.NewRGBA(r)
	nextY := r.Min.Y
	PaintBands(res, opts, r, r.Dx(), r.Dy(), func(band *image.RGBA) {
		b := band.Rect
		if b.Min.Y != nextY || b.Min.X != r.Min.X || b.Max.X != r.Max.X || b.Empty() || b.Dy() > bandRows {
			t.Fatalf("band %v after row %d of %v", b, nextY, r)
		}
		nextY = b.Max.Y
		draw.Draw(got, b, band, b.Min, draw.Src)
	})
	if nextY != r.Max.Y && !r.Empty() {
		t.Fatalf("bands of %v stopped at row %d", r, nextY)
	}
	return got
}

// TestStreamPaintMatchesPaint: the bands PaintBands streams over the
// whole frame, each copied out at delivery while later ones are still
// painting, are Paint's frame.
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
			got := bandsOf(t, res, tc.opts, want.Rect)
			if !bytes.Equal(want.Pix, got.Pix) {
				t.Fatalf("streamed bands differ from Paint at %v", firstPixelDiff(want, got))
			}
		})
	}
}

// TestStreamPaintDeliversOrderedFullCoverage: over any rectangle — inside
// the frame, straddling its edges, or outside it — the bands cover the
// rectangle clipped to the frame top to bottom, each as wide as it, and
// a rectangle outside the frame gets no band.
func TestStreamPaintDeliversOrderedFullCoverage(t *testing.T) {
	res := streamLayout(t, 320)
	w, h := FrameSize(res, Options{})
	for _, r := range []image.Rectangle{
		image.Rect(0, 0, w, h),
		image.Rect(13, 40, 200, 41),
		image.Rect(-50, 70, 100, h+100),
		image.Rect(w-5, h-90, w+300, h+5),
	} {
		if got := bandsOf(t, res, Options{Workers: 5}, r); got.Rect != r.Intersect(image.Rect(0, 0, w, h)) {
			t.Fatalf("bands of %v cover %v", r, got.Rect)
		}
	}
	PaintBands(res, Options{Workers: 5}, image.Rect(w, 0, w+200, 100), 200, 100, func(band *image.RGBA) {
		t.Fatalf("band %v of a rectangle outside the %dx%d frame", band.Rect, w, h)
	})
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
					paintBands(res, opts, nil, want.Rect, want.Rect.Dx(), want.Rect.Dy(), rows, func(band *image.RGBA) {
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

// TestPaintRegionMatchesCropOfPaint: painting a rectangle of the page in
// bands is cropping the whole page's paint to it, for random rectangles —
// which cut through text runs, borders and replaced images — and for ones
// that reach past the frame.
func TestPaintRegionMatchesCropOfPaint(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 8; trial++ {
		res, images := layoutRandomPage(t, rng)
		opts := Options{Images: images, Antialias: trial%2 == 1, Workers: 1 + trial%3}
		full := clone(Paint(res, opts))
		fw, fh := full.Rect.Dx(), full.Rect.Dy()
		for i := 0; i < 25; i++ {
			x, y := rng.Intn(fw)-20, rng.Intn(fh)-20
			r := image.Rect(x, y, x+1+rng.Intn(fw), y+1+rng.Intn(fh))
			got := bandsOf(t, res, opts, r)
			want := image.NewRGBA(got.Rect)
			draw.Draw(want, want.Rect, full, want.Rect.Min, draw.Src)
			if !bytes.Equal(got.Pix, want.Pix) {
				t.Fatalf("trial %d region %v differs from the crop at %v", trial, r, firstPixelDiff(want, got))
			}
		}
	}
}
