package progressive

import (
	"bytes"
	"image"
	"testing"

	"msite/internal/css"
	"msite/internal/html"
	"msite/internal/imaging"
	"msite/internal/layout"
	"msite/internal/raster"
)

const testPage = `<html><body>
	<div style="background-color: #884422; width: 300px; height: 80px"></div>
	<h1>Progressive ladder</h1>
	<p>Some body text that paints glyph pixels across several bands of the
	frame so the coarse accumulator sees non-uniform content.</p>
	<div style="border: 3px solid green; width: 200px; height: 240px"></div>
</body></html>`

func testLayout(t *testing.T) *layout.Result {
	t.Helper()
	doc := html.Parse(testPage)
	styler := css.StylerForDocument(doc)
	return layout.Layout(doc, styler, layout.Viewport{Width: 480})
}

// oneShot reproduces the buffered path's snapshot encode exactly.
func oneShot(t *testing.T, res *layout.Result, opts raster.Options, fid imaging.Fidelity, scale float64) []byte {
	t.Helper()
	frame := raster.Paint(res, opts)
	scaled := imaging.ScaleFactor(frame, scale)
	raster.Release(frame)
	data, err := imaging.Encode(scaled, fid)
	imaging.PutRGBA(scaled)
	if err != nil {
		t.Fatalf("one-shot encode: %v", err)
	}
	return data
}

// TestFullRungMatchesOneShotEncode is the PR's byte-identity property:
// the progressive pipeline changes when bytes exist, never which bytes.
func TestFullRungMatchesOneShotEncode(t *testing.T) {
	res := testLayout(t)
	for _, tc := range []struct {
		name  string
		fid   imaging.Fidelity
		scale float64
		opts  raster.Options
	}{
		{"png-full-scale", imaging.FidelityHigh, 1, raster.Options{Workers: 4}},
		{"jpeg-low-scaled", imaging.FidelityLow, 0.45, raster.Options{Workers: 4}},
		{"serial", imaging.FidelityLow, 0.45, raster.Options{Workers: 1}},
		{"antialias", imaging.FidelityMedium, 0.7, raster.Options{Workers: 3, Antialias: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want := oneShot(t, res, tc.opts, tc.fid, tc.scale)
			out, err := Render(res, Config{Raster: tc.opts, Fidelity: tc.fid, Scale: tc.scale})
			if err != nil {
				t.Fatalf("Render: %v", err)
			}
			if !bytes.Equal(out.Full.Data, want) {
				t.Fatalf("full rung differs from one-shot encode (%d vs %d bytes)",
					len(out.Full.Data), len(want))
			}
			if out.Full.MIME != tc.fid.MIME() {
				t.Fatalf("full MIME = %q", out.Full.MIME)
			}
		})
	}
}

// TestFullRungIndependentOfLadderAndWorkers is the one renderer's
// property: asking for the coarse rung, and the worker count, change
// nothing about the full rung, which stays the plain
// Encode(ScaleFactor(Paint)) of the layout — or Encode(Paint) when no
// scale is given, the pre-rendered subpages' case.
func TestFullRungIndependentOfLadderAndWorkers(t *testing.T) {
	res := testLayout(t)
	frame := raster.Paint(res, raster.Options{Workers: 1})
	unscaled, err := imaging.Encode(frame, imaging.FidelityLow)
	raster.Release(frame)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		scale float64
		want  []byte
	}{
		{"scaled", 0.45, oneShot(t, res, raster.Options{Workers: 1}, imaging.FidelityLow, 0.45)},
		{"as-painted", 0, unscaled},
	} {
		for _, workers := range []int{1, 2, 0, 64} {
			for _, ladder := range []bool{false, true} {
				cfg := Config{Raster: raster.Options{Workers: workers}, Fidelity: imaging.FidelityLow, Scale: tc.scale}
				coarse := 0
				if ladder {
					cfg.OnCoarse = func(Artifact) { coarse++ }
				}
				out, err := Render(res, cfg)
				if err != nil {
					t.Fatalf("%s workers=%d ladder=%v: %v", tc.name, workers, ladder, err)
				}
				if !bytes.Equal(out.Full.Data, tc.want) {
					t.Errorf("%s workers=%d ladder=%v: full rung differs from the one-shot encode", tc.name, workers, ladder)
				}
				if ladder != (coarse == 1) || ladder != (len(out.Coarse.Data) > 0) {
					t.Errorf("%s workers=%d ladder=%v: coarse rung produced %d times, %d bytes",
						tc.name, workers, ladder, coarse, len(out.Coarse.Data))
				}
			}
		}
	}
}

func TestCoarseArrivesBeforeFull(t *testing.T) {
	res := testLayout(t)
	var coarse Artifact
	called := 0
	out, err := Render(res, Config{
		Raster:   raster.Options{Workers: 4},
		Fidelity: imaging.FidelityLow,
		Scale:    0.45,
		OnCoarse: func(a Artifact) {
			called++
			coarse = a
		},
	})
	if err != nil {
		t.Fatalf("Render: %v", err)
	}
	if called != 1 {
		t.Fatalf("OnCoarse called %d times", called)
	}
	if !bytes.Equal(coarse.Data, out.Coarse.Data) {
		t.Fatal("callback artifact differs from result's coarse rung")
	}
	if len(coarse.Data) == 0 || len(out.Full.Data) == 0 {
		t.Fatal("empty rung")
	}
	if len(coarse.Data) >= len(out.Full.Data) {
		t.Fatalf("coarse rung (%d bytes) is not smaller than full (%d bytes)",
			len(coarse.Data), len(out.Full.Data))
	}
}

func TestCoarseRungDecodesAtExpectedGeometry(t *testing.T) {
	res := testLayout(t)
	out, err := Render(res, Config{
		Raster:   raster.Options{Workers: 2},
		Fidelity: imaging.FidelityLow,
		Scale:    0.45,
		OnCoarse: func(Artifact) {},
	})
	if err != nil {
		t.Fatalf("Render: %v", err)
	}
	img, err := imaging.Decode(out.Coarse.Data)
	if err != nil {
		t.Fatalf("coarse rung does not decode: %v", err)
	}
	b := img.Bounds()
	if b.Dx() != out.Coarse.Width || b.Dy() != out.Coarse.Height {
		t.Fatalf("decoded %dx%d, artifact claims %dx%d",
			b.Dx(), b.Dy(), out.Coarse.Width, out.Coarse.Height)
	}
	if out.Coarse.MIME != "image/jpeg" {
		t.Fatalf("coarse MIME = %q", out.Coarse.MIME)
	}
	// Quarter scale of the 0.45-scaled output, and strictly smaller than
	// the full rung's geometry.
	if b.Dx() >= out.Full.Width || b.Dy() >= out.Full.Height {
		t.Fatalf("coarse %dx%d not smaller than full %dx%d",
			b.Dx(), b.Dy(), out.Full.Width, out.Full.Height)
	}
}

// TestCoarseAccumMatchesBoxScale checks the incremental accumulator
// against imaging's one-shot box filter on the same frame.
func TestCoarseAccumMatchesBoxScale(t *testing.T) {
	res := testLayout(t)
	frame := raster.Paint(res, raster.Options{Workers: 1})
	defer raster.Release(frame)
	fb := frame.Bounds()
	cw, ch := fb.Dx()/4, fb.Dy()/4

	want := imaging.Scale(frame, cw, ch)
	defer imaging.PutRGBA(want)

	acc := newCoarseAccum(fb.Dx(), fb.Dy(), cw, ch)
	// Feed the frame in uneven chunks to exercise row-boundary handling.
	for y := fb.Min.Y; y < fb.Max.Y; {
		end := y + 7
		if end > fb.Max.Y {
			end = fb.Max.Y
		}
		acc.addBand(frame.SubImage(image.Rect(fb.Min.X, y, fb.Max.X, end)).(*image.RGBA))
		y = end
	}
	got := acc.finish()
	defer imaging.PutRGBA(got)
	if got.Rect != want.Rect {
		t.Fatalf("bounds: got %v, want %v", got.Rect, want.Rect)
	}
	if !bytes.Equal(got.Pix, want.Pix) {
		t.Fatal("incremental coarse accumulation differs from one-shot box scale")
	}
}
