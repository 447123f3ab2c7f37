package imaging

import (
	"image"
	"image/color"
	"math"
	"runtime"
	"testing"
)

// textPage is a w×h image like a pre-rendered page: a white ground with a
// line of text every 20 rows, its ink in 40 shades at random pixels, from
// the first line on.
func textPage(w, h int) *image.RGBA {
	img := image.NewRGBA(image.Rect(0, 0, w, h))
	state := uint32(7)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			c := color.RGBA{R: 0xff, G: 0xff, B: 0xff, A: 0xff}
			if y%20 >= 4 && y%20 < 16 && x%300 < 280 {
				if state = state*1664525 + 1013904223; state>>28 < 6 {
					v := uint8(state >> 16 % 40 * 6)
					c = color.RGBA{R: v, G: v, B: v + 10, A: 0xff}
				}
			}
			img.SetRGBA(x, y, c)
		}
	}
	return img
}

// TestExactFrameAllocationBudget collects a 460×1162 page, the forums
// pre-render's size, and the same width four times as tall into exact
// frames in 16-row bands, as a render's bands arrive, and holds what each
// allocates besides its file and the IDAT chunks it recorded before
// writing the file. That is the deflate state, its 32 KB buffer, a row and
// a palette, and at most the 64 rows held before the 17th colour: it must
// not grow with the page's height. The two may differ by what rounding
// the file and the last chunk up to an allocation size adds, up to 8 KB
// each; a frame that held its palette indices (one byte a pixel) until it
// was encoded would allocate 1.6 MB more for the tall page.
func TestExactFrameAllocationBudget(t *testing.T) {
	const w, slack = 460, 16 << 10
	measure := func(h int) (other, file uint64) {
		img := textPage(w, h)
		var bands []*image.RGBA
		for y := 0; y < h; y += 16 {
			bands = append(bands, img.SubImage(image.Rect(0, y, w, min(y+16, h))).(*image.RGBA))
		}
		other = math.MaxUint64
		for i := 0; i < 3; i++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			f := NewFrame(w, h, true)
			for _, b := range bands {
				f.Add(b)
			}
			data, mime, err := f.Encode(FidelityLow)
			runtime.ReadMemStats(&after)
			if err != nil || mime != "image/png" {
				t.Fatalf("a %d px page encoded as %s, err %v", h, mime, err)
			}
			file = uint64(len(data))
			other = min(other, after.TotalAlloc-before.TotalAlloc-2*file)
		}
		return other, file
	}
	t.Logf("| exact frame | file KB | KB besides the file and its IDAT chunks | a palette frame's KB |")
	t.Logf("|---|---|---|---|")
	var others [2]uint64
	for i, h := range []int{1162, 4 * 1162} {
		other, file := measure(h)
		others[i] = other
		t.Logf("| %d×%d | %.1f | %.1f | %.1f |", w, h, float64(file)/1024, float64(other)/1024, float64(w*h)/1024)
	}
	if d := int64(others[1]) - int64(others[0]); d < -slack || d > slack {
		t.Errorf("a 4×-taller page's exact frame allocated %d B besides its data, the page's %d: more than %d B apart",
			others[1], others[0], slack)
	}
}
