package raster

import (
	"bytes"
	"image"
	"image/color"
	"image/gif"
	"runtime"
	"slices"
	"testing"

	"msite/internal/css"
	"msite/internal/html"
	"msite/internal/imaging"
	"msite/internal/layout"
)

func paint(t *testing.T, src string, width int) (*image.RGBA, *layout.Result) {
	t.Helper()
	doc := html.Parse(src)
	styler := css.StylerForDocument(doc)
	res := layout.Layout(doc, styler, layout.Viewport{Width: width})
	img := Paint(res, Options{})
	return img, res
}

func TestPaintFillsBackgroundWhite(t *testing.T) {
	img, _ := paint(t, `<html><body><p>x</p></body></html>`, 100)
	c := img.RGBAAt(99, 0)
	if c != (color.RGBA{255, 255, 255, 255}) {
		t.Fatalf("corner = %v", c)
	}
}

func TestPaintBodyBackground(t *testing.T) {
	img, _ := paint(t, `<html><body style="background-color: #102030; height: 50px"></body></html>`, 100)
	c := img.RGBAAt(50, 25)
	if c != (color.RGBA{0x10, 0x20, 0x30, 255}) {
		t.Fatalf("bg = %v", c)
	}
}

func TestPaintElementBackground(t *testing.T) {
	img, _ := paint(t, `<html><body>
		<div style="background-color: red; width: 40px; height: 20px"></div>
	</body></html>`, 100)
	if got := img.RGBAAt(10, 10); got != (color.RGBA{255, 0, 0, 255}) {
		t.Fatalf("inside = %v", got)
	}
	if got := img.RGBAAt(60, 10); got != (color.RGBA{255, 255, 255, 255}) {
		t.Fatalf("outside = %v", got)
	}
}

func TestPaintBorder(t *testing.T) {
	img, _ := paint(t, `<html><body>
		<div style="border: 2px solid blue; width: 50px; height: 20px"></div>
	</body></html>`, 100)
	blue := color.RGBA{0, 0, 255, 255}
	if got := img.RGBAAt(25, 0); got != blue {
		t.Fatalf("top border = %v", got)
	}
	if got := img.RGBAAt(0, 10); got != blue {
		t.Fatalf("left border = %v", got)
	}
	if got := img.RGBAAt(25, 10); got == blue {
		t.Fatal("interior should not be border color")
	}
}

func TestPaintTextChangesPixels(t *testing.T) {
	img, res := paint(t, `<html><body><p>Hello World</p></body></html>`, 200)
	runs := slices.Collect(res.Runs())
	if len(runs) != 2 {
		t.Fatalf("runs = %d", len(runs))
	}
	// Some pixel within the first run must be non-white (black text).
	r := runs[0]
	found := false
	for y := int(r.Y); y < int(r.Y+r.Height()) && !found; y++ {
		for x := int(r.X); x < int(r.X+r.Width()); x++ {
			if img.RGBAAt(x, y) == (color.RGBA{0, 0, 0, 255}) {
				found = true
				break
			}
		}
	}
	if !found {
		t.Fatal("no text pixels painted inside run bounds")
	}
	// And pixels stay inside the run bounds (nothing paints above it).
	for x := 0; x < 200; x++ {
		if img.RGBAAt(x, int(r.Y)-2) != (color.RGBA{255, 255, 255, 255}) {
			t.Fatalf("paint above text line at x=%d", x)
		}
	}
}

func TestPaintColoredText(t *testing.T) {
	img, res := paint(t, `<html><body><p style="color: red">R</p></body></html>`, 100)
	r := slices.Collect(res.Runs())[0]
	found := false
	for y := int(r.Y); y < int(r.Y+r.Height()); y++ {
		for x := int(r.X); x < int(r.X+r.Width()); x++ {
			if img.RGBAAt(x, y) == (color.RGBA{255, 0, 0, 255}) {
				found = true
			}
		}
	}
	if !found {
		t.Fatal("no red pixels for red text")
	}
}

func TestPaintImagePlaceholder(t *testing.T) {
	img, _ := paint(t, `<html><body><img src="x.png" width="40" height="30"></body></html>`, 100)
	// Placeholder fill color somewhere inside.
	if got := img.RGBAAt(20, 15); got == (color.RGBA{255, 255, 255, 255}) {
		t.Fatalf("placeholder not painted: %v", got)
	}
}

func TestPaintMinHeight(t *testing.T) {
	doc := html.Parse(`<html><body></body></html>`)
	res := layout.Layout(doc, nil, layout.Viewport{Width: 50})
	img := Paint(res, Options{MinHeight: 120})
	if img.Bounds().Dy() != 120 {
		t.Fatalf("height = %d", img.Bounds().Dy())
	}
}

func TestPaintEmptyDocument(t *testing.T) {
	doc := html.Parse(``)
	res := layout.Layout(doc, nil, layout.Viewport{Width: 10})
	img := Paint(res, Options{})
	if img.Bounds().Dx() != 10 || img.Bounds().Dy() < 1 {
		t.Fatalf("bounds = %v", img.Bounds())
	}
}

func TestGlyphFallback(t *testing.T) {
	g := glyphFor('中')
	if g != ([5]byte{0x3E, 0x3E, 0x3E, 0x3E, 0x3E}) {
		t.Fatal("non-ASCII should greek")
	}
	if glyphFor('A') == glyphFor('B') {
		t.Fatal("distinct glyphs expected")
	}
	if glyphFor(' ') != ([5]byte{}) {
		t.Fatal("space should be empty")
	}
}

func TestBoldWiderThanRegular(t *testing.T) {
	imgN, resN := paint(t, `<html><body><p>H</p></body></html>`, 100)
	imgB, resB := paint(t, `<html><body><p><b>H</b></p></body></html>`, 100)
	countDark := func(img *image.RGBA, res *layout.Result) int {
		n := 0
		r := slices.Collect(res.Runs())[0]
		for y := int(r.Y); y < int(r.Y+r.Height()+2); y++ {
			for x := int(r.X); x < int(r.X+r.Width()+4); x++ {
				if img.RGBAAt(x, y) == (color.RGBA{0, 0, 0, 255}) {
					n++
				}
			}
		}
		return n
	}
	if countDark(imgB, resB) <= countDark(imgN, resN) {
		t.Fatal("bold should paint more pixels")
	}
}

func TestPaintUnderline(t *testing.T) {
	img, res := paint(t, `<html><body><p><a href="/x">link</a></p></body></html>`, 200)
	r := slices.Collect(res.Runs())[0]
	if !r.Underline {
		t.Fatal("run should be underlined")
	}
	// A contiguous rule exists just under the glyph block.
	y := int(r.Y+r.Height()) + 1
	dark := 0
	for x := int(r.X); x < int(r.X+r.Width()); x++ {
		c := img.RGBAAt(x, y)
		if c.R < 200 || c.G < 200 || c.B < 200 {
			dark++
		}
	}
	if dark < int(r.Width())-2 {
		t.Fatalf("underline pixels = %d of %d", dark, int(r.Width()))
	}
}

func TestPaintRealImage(t *testing.T) {
	// A 4x4 solid green source image painted into a 40x20 img box.
	src := image.NewRGBA(image.Rect(0, 0, 4, 4))
	green := color.RGBA{0, 200, 0, 255}
	for y := 0; y < 4; y++ {
		for x := 0; x < 4; x++ {
			src.SetRGBA(x, y, green)
		}
	}
	doc := html.Parse(`<html><body><img src="/logo.png" width="40" height="20"></body></html>`)
	res := layout.Layout(doc, css.StylerForDocument(doc), layout.Viewport{Width: 100})
	img := Paint(res, Options{Images: map[string]image.Image{"/logo.png": src}})
	if got := img.RGBAAt(20, 10); got != green {
		t.Fatalf("center = %v, want real image pixels", got)
	}
	// Without the map, the placeholder paints instead.
	img2 := Paint(res, Options{})
	if got := img2.RGBAAt(20, 10); got == green {
		t.Fatal("placeholder expected without decoded image")
	}
}

// emptyGIF is a 34-byte GIF of 0×0 pixels, which image/gif decodes.
func emptyGIF(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gif.Encode(&buf, image.NewPaletted(image.Rect(0, 0, 0, 0), color.Palette{color.Black, color.White}), nil); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 34 {
		t.Fatalf("empty GIF is %d bytes, want 34", buf.Len())
	}
	return buf.Bytes()
}

// TestEmptyImagePaintsNoStalePixels: a box whose origin image has no
// pixels never shows what an earlier render scaled into the pooled buffer
// it gets — another site's image, or another user's. Decode refuses the
// image, so the placeholder paints, and an empty image handed in anyway
// paints transparent black. The renders run on one CPU, so the pool hands
// the second render the first one's buffer.
func TestEmptyImagePaintsNoStalePixels(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	doc := html.Parse(`<html><body><img src="/a.gif" width="60" height="40"></body></html>`)
	res := layout.Layout(doc, css.StylerForDocument(doc), layout.Viewport{Width: 100})
	centre := func(images map[string]image.Image) color.RGBA {
		w, h := FrameSize(res, Options{})
		return bandsOf(t, res, Options{Images: images, Workers: 1}, image.Rect(0, 0, w, h)).RGBAAt(38, 11)
	}
	red := image.NewRGBA(image.Rect(0, 0, 60, 40))
	for i := 0; i < len(red.Pix); i += 4 {
		copy(red.Pix[i:], []uint8{255, 0, 0, 255})
	}
	if got := centre(map[string]image.Image{"/a.gif": red}); got != (color.RGBA{255, 0, 0, 255}) {
		t.Fatalf("the red image paints %v", got)
	}
	data := emptyGIF(t)
	if img, err := imaging.Decode(data); err == nil {
		t.Fatalf("Decode of a 0×0 GIF returned a %v image, want an error", img.Bounds())
	}
	if got := centre(nil); got != (color.RGBA{203, 213, 225, 255}) {
		t.Fatalf("without its image the box paints %v, want the placeholder", got)
	}
	centre(map[string]image.Image{"/a.gif": red})
	empty, err := gif.Decode(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if got := centre(map[string]image.Image{"/a.gif": empty}); got != (color.RGBA{}) {
		t.Fatalf("an empty image paints %v, want transparent black", got)
	}
}
