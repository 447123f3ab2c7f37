package progressive

import (
	"bytes"
	"fmt"
	"image"
	"image/color"
	"image/draw"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"strings"
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
	frame so the band fold sees non-uniform content.</p>
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

// TestFullRungMatchesOneShotEncode is the renderer's byte-identity
// property: folding bands changes when bytes exist, never which bytes.
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
			if !bytes.Equal(out.Data, want) {
				t.Fatalf("render differs from one-shot encode (%d vs %d bytes)",
					len(out.Data), len(want))
			}
			if out.MIME != tc.fid.MIME() {
				t.Fatalf("MIME = %q", out.MIME)
			}
		})
	}
}

// exactOf is the exact encoding of frame collected whole into an
// imaging.Frame, and its MIME type: a palette PNG when it has at most 256
// colours, a JPEG at FidelityLow when it has more.
func exactOf(t *testing.T, frame *image.RGBA) ([]byte, string) {
	t.Helper()
	f := imaging.NewFrame(frame.Rect.Dx(), frame.Rect.Dy(), true)
	f.Add(frame)
	data, mime, err := f.Encode(imaging.FidelityLow)
	if err != nil {
		t.Fatal(err)
	}
	return data, mime
}

// TestExactFullRung: with Exact, a flat frame's full rung is the exact
// encoding of the frame Encode would otherwise have been given, and says
// it is a PNG; a frame holding a photo, of more than 256 colours, gets the
// Fidelity rung byte for byte as without Exact.
func TestExactFullRung(t *testing.T) {
	photo := image.NewRGBA(image.Rect(0, 0, 64, 64))
	for y := 0; y < 64; y++ {
		for x := 0; x < 64; x++ {
			photo.SetRGBA(x, y, color.RGBA{R: uint8(4 * x), G: uint8(4 * y), B: 99, A: 0xff})
		}
	}
	doc := html.Parse(strings.Replace(testPage, "</body>", `<img src="photo.png" width="64" height="64"></body>`, 1))
	withPhoto := layout.Layout(doc, css.StylerForDocument(doc), layout.Viewport{Width: 480})
	for _, tc := range []struct {
		name      string
		res       *layout.Result
		opts      raster.Options
		scale     float64
		wantExact bool
	}{
		{"flat-scaled", testLayout(t), raster.Options{Workers: 2}, 0.45, true},
		{"flat-as-painted", testLayout(t), raster.Options{Workers: 2}, 0, true},
		{"flat-magnified", testLayout(t), raster.Options{Workers: 2}, 1.3, false},
		{"photo", withPhoto, raster.Options{Workers: 2, Images: map[string]image.Image{"photo.png": photo}}, 1, false},
	} {
		res := tc.res
		frame := raster.Paint(res, tc.opts)
		if tc.scale > 0 {
			frame = imaging.ScaleFactor(frame, tc.scale)
		}
		want, wantMIME := exactOf(t, frame)
		if exact := wantMIME == "image/png"; exact != tc.wantExact {
			t.Fatalf("%s: the frame's exact encoding is %s", tc.name, wantMIME)
		}
		if wantMIME != "image/png" {
			want = oneShot(t, res, tc.opts, imaging.FidelityLow, tc.scale)
		}
		out, err := Render(res, Config{Raster: tc.opts, Fidelity: imaging.FidelityLow, Exact: true, Scale: tc.scale})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !bytes.Equal(out.Data, want) || out.MIME != wantMIME {
			t.Errorf("%s: render is %d bytes of %s, want %d bytes of %s", tc.name, len(out.Data), out.MIME, len(want), wantMIME)
		}
	}
}

// TestRegionMatchesCropOfPaint: rendering a rectangle of the page is
// encoding the scaled crop of the whole page's paint, for rectangles that
// cut through boxes and text or reach past the frame, at every scale the
// renderer handles; a rectangle outside the frame is an error.
func TestRegionMatchesCropOfPaint(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	for trial := 0; trial < 3; trial++ {
		res := randomLayout(rng)
		full := raster.Paint(res, raster.Options{Workers: 1})
		fw, fh := full.Rect.Dx(), full.Rect.Dy()
		for _, scale := range []float64{0.4, 1, 1.5} {
			x, y := rng.Intn(fw)-20, rng.Intn(fh)-20
			r := image.Rect(x, y, x+1+rng.Intn(fw), y+1+rng.Intn(fh))
			crop := image.NewRGBA(r.Intersect(full.Rect))
			draw.Draw(crop, crop.Rect, full, crop.Rect.Min, draw.Src)
			for _, fid := range []imaging.Fidelity{imaging.FidelityLow, imaging.FidelityHigh} {
				want, err := imaging.Encode(imaging.ScaleFactor(crop, scale), fid)
				if err != nil {
					t.Fatal(err)
				}
				out, err := RenderRegion(res, Config{Raster: raster.Options{Workers: 3}, Fidelity: fid, Scale: scale}, r)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(out.Data, want) || out.MIME != fid.MIME() {
					t.Errorf("trial %d region %v scale %v %v: render differs from the crop's encode", trial, r, scale, fid)
				}
			}
		}
		if _, err := RenderRegion(res, Config{Fidelity: imaging.FidelityLow}, image.Rect(fw, 0, fw+50, 50)); err == nil {
			t.Fatal("a region outside the frame rendered")
		}
	}
}

// randomLayout lays out a random page of backgrounds, borders, text and
// replaced elements at a random width; heights land on no band boundary.
func randomLayout(rng *rand.Rand) *layout.Result {
	var sb strings.Builder
	sb.WriteString(`<html><body>`)
	for i, n := 0, 3+rng.Intn(5); i < n; i++ {
		switch rng.Intn(4) {
		case 0:
			fmt.Fprintf(&sb, `<div style="background-color: #%06x; border: %dpx solid #246; height: %dpx"></div>`,
				rng.Intn(1<<24), rng.Intn(5), 5+rng.Intn(90))
		case 1:
			fmt.Fprintf(&sb, `<h2>heading %d</h2><p>paragraph %d with <b>bold</b>, <i>italic</i> and <a href="/x">a link</a></p>`, i, i)
		case 2:
			fmt.Fprintf(&sb, `<img src="p%d.gif" width="%d" height="%d">`, i, 10+rng.Intn(80), 10+rng.Intn(80))
		case 3:
			fmt.Fprintf(&sb, `<ul><li>item %d</li><li style="background-color: #8c4">item b</li></ul>`, i)
		}
	}
	sb.WriteString(`</body></html>`)
	doc := html.Parse(sb.String())
	return layout.Layout(doc, css.StylerForDocument(doc), layout.Viewport{Width: 150 + rng.Intn(500)})
}

// TestFullRungIndependentOfWorkers is the one renderer's property,
// over random layouts: the worker count changes nothing about the
// render, which stays the plain Encode(ScaleFactor(Paint)) of the layout
// whether it is folded from bands (a scale below 1), painted whole and
// encoded as painted (no scale, or one that changes nothing) or
// magnified.
func TestFullRungIndependentOfWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	layouts := []*layout.Result{testLayout(t)}
	for i := 0; i < 3; i++ {
		layouts = append(layouts, randomLayout(rng))
	}
	for li, res := range layouts {
		frame := raster.Paint(res, raster.Options{Workers: 1})
		unscaled, err := imaging.Encode(frame, imaging.FidelityLow)
		if err != nil {
			t.Fatal(err)
		}
		for _, tc := range []struct {
			name  string
			scale float64
			want  []byte
		}{
			{"scaled", 0.45, oneShot(t, res, raster.Options{Workers: 1}, imaging.FidelityLow, 0.45)},
			{"scaled-small", 0.11, oneShot(t, res, raster.Options{Workers: 1}, imaging.FidelityLow, 0.11)},
			{"as-painted", 0, unscaled},
			{"scale-one", 1, unscaled},
			{"magnified", 1.3, oneShot(t, res, raster.Options{Workers: 1}, imaging.FidelityLow, 1.3)},
		} {
			outW, outH := frame.Rect.Dx(), frame.Rect.Dy()
			if tc.scale > 0 {
				outW, outH = imaging.FactorSize(outW, outH, tc.scale)
			}
			for _, workers := range []int{1, 2, 0, 64} {
				out, err := Render(res, Config{Raster: raster.Options{Workers: workers}, Fidelity: imaging.FidelityLow, Scale: tc.scale})
				if err != nil {
					t.Fatalf("layout %d %s workers=%d: %v", li, tc.name, workers, err)
				}
				if !bytes.Equal(out.Data, tc.want) {
					t.Errorf("layout %d %s workers=%d: render differs from the one-shot encode", li, tc.name, workers)
				}
				if out.Width != outW || out.Height != outH {
					t.Errorf("layout %d %s: render claims %dx%d, want %dx%d", li, tc.name, out.Width, out.Height, outW, outH)
				}
			}
		}
	}
}

// TestScaleOnePaintsOnce: a render whose scale leaves the size unchanged
// (what a spec without snapshot.scale asks for) encodes the painted frame
// itself; the scaler is never handed a second frame to fill.
func TestScaleOnePaintsOnce(t *testing.T) {
	res := testLayout(t)
	fw, fh := raster.FrameSize(res, raster.Options{})
	perFrame := float64(4 * fw * fh)
	bytesFor := func(scale float64) float64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := Render(res, Config{Raster: raster.Options{Workers: 1}, Fidelity: imaging.FidelityLow, Scale: scale}); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc - before.TotalAlloc)
	}
	bytesFor(0) // fill the encoder and frame pools
	asPainted, one := bytesFor(0), bytesFor(1)
	if one > asPainted+perFrame/2 {
		t.Fatalf("Scale 1 allocated %.0f bytes, as-painted %.0f: a second %0.f-byte frame", one, asPainted, perFrame)
	}
}

// TestRenderAllocationBudget renders the synthetic forum's entry page at
// 0.45 as the snapshot does, and the same page with its body twice over,
// on 1, 2 and 4 workers. What a render allocates besides its frame (one
// palette index an output pixel) and its encoded bytes is what its paint
// workers own, each sized once from a band of about 16 source rows: its
// recorder (the band's fills, 17 KB on a 1024 px page, their row index
// and a row of spans, 15 KB), its filter's spans and sums per destination
// column (26 KB at 460 px) and a slot of output rows (13 KB). No worker
// holds the band's pixels. So the object count does not grow with the
// page's height, and those bytes stay within a per-worker budget.
func TestRenderAllocationBudget(t *testing.T) {
	const fixed, perWorker = 48 << 10, 80 << 10
	page := forumEntry()
	body, end := strings.Index(page, "<body"), strings.LastIndex(page, "</body>")
	body += strings.Index(page[body:], ">") + 1
	var layouts []*layout.Result
	for _, src := range []string{page, page[:end] + page[body:end] + page[end:]} {
		doc := html.Tidy(src)
		layouts = append(layouts, layout.Layout(doc, css.StylerForDocument(doc), layout.Viewport{Width: 1024}))
	}
	if short, tall := layouts[0].Height, layouts[1].Height; tall < 2*short-64 {
		t.Fatalf("the doubled page is %d px tall, the page %d", tall, short)
	}
	// measure is the least a render allocates, in objects and in bytes
	// besides its frame and its data, over two renders whose encode found
	// its scratch buffer in imaging's pool. Whether one does is not the
	// render's doing: two collections empty a sync.Pool, and under the race
	// detector Put drops a quarter of what it is given, so a least over
	// any two renders missed the buffer in one run of four there. After a
	// render that warms the process, the test collects twice and renders
	// once more: that render cannot find the buffer, and every render that
	// makes fewer objects did. Only those count. The pool is per CPU, so
	// the test runs on one, and the collector is off while a render runs.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	measure := func(res *layout.Result, workers int) (objects, other uint64) {
		cfg := Config{Raster: raster.Options{Workers: workers}, Fidelity: imaging.FidelityLow, Scale: 0.45}
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		render := func() (objects, other uint64) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			out, err := Render(res, cfg)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			runtime.GC()
			return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc - uint64(out.Width*out.Height+len(out.Data))
		}
		render()
		runtime.GC()
		missed, _ := render()
		objects, other = math.MaxUint64, math.MaxUint64
		for found, renders := 0, 0; found < 2; renders++ {
			if renders == 16 {
				t.Fatalf("%d workers: %d renders made no fewer objects than one whose encode found no pooled buffer (%d)", workers, renders, missed)
			}
			if o, b := render(); o < missed {
				found++
				objects, other = min(objects, o), min(other, b)
			}
		}
		return objects, other
	}
	t.Logf("| render of the forum at 0.45 | workers | objects | KB besides the frame | budget KB |")
	t.Logf("|---|---|---|---|---|")
	for _, workers := range []int{1, 2, 4} {
		budget := uint64(fixed + workers*perWorker)
		var objects [2]uint64
		for i, res := range layouts {
			var other uint64
			objects[i], other = measure(res, workers)
			t.Logf("| %d px | %d | %d | %.0f | %d |", res.Height, workers, objects[i], float64(other)/1024, budget>>10)
			if other > budget {
				t.Errorf("%d workers: a %d px render allocated %d B besides its frame, budget %d", workers, res.Height, other, budget)
			}
		}
		if d := int64(objects[1]) - int64(objects[0]); d < -2 || d > 2 {
			t.Errorf("%d workers: a %d px render made %d objects, a %d px one %d",
				workers, layouts[0].Height, objects[0], layouts[1].Height, objects[1])
		}
	}
}
