package imaging

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"image"
	"image/color"
	"image/png"
	"math/rand"
	"testing"
)

// encodeExact is the oracle for a Frame's exact encoding, and the encoder
// the Frame replaced: an *image.RGBA of at most 256 colours, each of which
// survives PNG's non-premultiplied palette, written by png.Encode through
// a view whose ColorIndexAt looks each pixel up in a table of the colours
// numbered in order of first appearance; ok is false for any other image.
func encodeExact(img *image.RGBA) (data []byte, ok bool, err error) {
	b := img.Bounds()
	if b.Empty() {
		return nil, false, nil
	}
	v := &paletteView{RGBA: img}
	for y := b.Min.Y; y < b.Max.Y; y++ {
		off := img.PixOffset(b.Min.X, y)
		for row := img.Pix[off : off+4*b.Dx()]; len(row) >= 4; row = row[4:] {
			key := binary.LittleEndian.Uint32(row)
			s := v.slot(key)
			if v.index[s] != 0 {
				continue
			}
			c := color.RGBA{R: row[0], G: row[1], B: row[2], A: row[3]}
			if len(v.pal) == 256 || c.A != 0xff && color.RGBAModel.Convert(color.NRGBAModel.Convert(c)) != c {
				return nil, false, nil
			}
			v.keys[s], v.index[s] = key, uint16(len(v.pal)+1)
			v.pal = append(v.pal, c)
		}
	}
	data, err = EncodePNG(v)
	return data, err == nil, err
}

// paletteView is an *image.RGBA seen as an image.PalettedImage.
type paletteView struct {
	*image.RGBA
	pal   color.Palette
	keys  [1 << tableBits]uint32
	index [1 << tableBits]uint16
}

func (v *paletteView) ColorModel() color.Model { return v.pal }

func (v *paletteView) ColorIndexAt(x, y int) uint8 {
	return uint8(v.index[v.slot(binary.LittleEndian.Uint32(v.Pix[v.PixOffset(x, y):]))] - 1)
}

func (v *paletteView) slot(key uint32) int {
	s := int(key * 0x9e3779b1 >> (32 - tableBits))
	for v.index[s] != 0 && v.keys[s] != key {
		s = (s + 1) & (1<<tableBits - 1)
	}
	return s
}

// withColours is a w×h image of n distinct opaque colours in stripes.
func withColours(w, h, n int) *image.RGBA {
	img := image.NewRGBA(image.Rect(0, 0, w, h))
	for i := 0; i < w*h; i++ {
		k := i * n / (w * h)
		img.SetRGBA(i%w, i/w, color.RGBA{R: uint8(k), G: uint8(k >> 8), B: 7, A: 0xff})
	}
	return img
}

// promotedAt is a w×h opaque image whose pixels before (x, y), in raster
// order, cycle through 256 colours, whose pixel (x, y) is a 257th, and
// whose pixels after it are noise.
func promotedAt(rng *rand.Rand, w, h, x, y int) *image.RGBA {
	img := image.NewRGBA(image.Rect(0, 0, w, h))
	for i := 0; i < w*h; i++ {
		c := color.RGBA{R: uint8(i % 256), G: 1, B: 2, A: 0xff}
		switch p := y*w + x; {
		case i == p:
			c.G = 9
		case i > p:
			c.R, c.G, c.B = uint8(rng.Intn(256)), uint8(rng.Intn(256)), uint8(rng.Intn(256))
		}
		img.SetRGBA(i%w, i/w, c)
	}
	return img
}

// streamedThenPromoted is a w×h opaque image, w at least 256, whose rows
// before row k hold 16 colours, whose row k brings the other 240 of 256,
// and whose pixel (w/2, y), y after k, is a 257th colour, or with lossy
// one the palette cannot give back: a frame of it streams from row k and
// is promoted on row y.
func streamedThenPromoted(w, h, k, y int, lossy bool) *image.RGBA {
	img := image.NewRGBA(image.Rect(0, 0, w, h))
	for py := 0; py < h; py++ {
		for x := 0; x < w; x++ {
			c := color.RGBA{R: uint8(x % 256), G: 1, B: 2, A: 0xff}
			if py < k {
				c.R %= 16
			}
			img.SetRGBA(x, py, c)
		}
	}
	c := color.RGBA{R: 5, G: 9, B: 2, A: 0xff}
	if lossy {
		c = color.RGBA{R: 1, A: 2}
	}
	img.SetRGBA(w/2, y, c)
	return img
}

// paletteNoise is a w×h image each of whose pixels is a random one of n
// opaque colours: with 256, its indices do not compress.
func paletteNoise(rng *rand.Rand, w, h, n int) *image.RGBA {
	img := image.NewRGBA(image.Rect(0, 0, w, h))
	for i := 0; i < w*h; i++ {
		k := rng.Intn(n)
		img.SetRGBA(i%w, i/w, color.RGBA{R: uint8(k), G: uint8(k * 7), B: 3, A: 0xff})
	}
	return img
}

// randomPalette is a w×h image of runs of colours drawn from a random
// palette of n, about one in eight of them translucent: some of those the
// palette gives back, some it does not.
func randomPalette(rng *rand.Rand, w, h, n int) *image.RGBA {
	pal := make([]color.RGBA, n)
	for i := range pal {
		c := color.NRGBA{R: uint8(rng.Intn(256)), G: uint8(rng.Intn(256)), B: uint8(rng.Intn(256)), A: 0xff}
		if rng.Intn(8) == 0 {
			c.A = uint8(rng.Intn(256))
		}
		pal[i] = color.RGBAModel.Convert(c).(color.RGBA)
	}
	img := image.NewRGBA(image.Rect(0, 0, w, h))
	for i := 0; i < w*h; {
		c := pal[rng.Intn(n)]
		for end := min(i+1+rng.Intn(8), w*h); i < end; i++ {
			img.SetRGBA(i%w, i/w, c)
		}
	}
	return img
}

// collect feeds img into a Frame, exact or not, in bands of random
// heights, one row at a time when rng is nil.
func collect(img *image.RGBA, rng *rand.Rand, exact bool) *Frame {
	b := img.Bounds()
	f := NewFrame(b.Dx(), b.Dy(), exact)
	for y := b.Min.Y; y < b.Max.Y; {
		n := 1
		if rng != nil {
			n = 1 + rng.Intn(b.Dy())
		}
		f.Add(img.SubImage(image.Rect(b.Min.X, y, b.Max.X, min(y+n, b.Max.Y))).(*image.RGBA))
		y += n
	}
	return f
}

// checkExact fails t unless data is a PNG that decodes to exactly img
// (moved to the origin, as PNG has no offset).
func checkExact(t *testing.T, data []byte, img *image.RGBA) {
	t.Helper()
	got, err := png.Decode(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("decoding the exact PNG: %v", err)
	}
	b := img.Bounds()
	if got.Bounds() != b.Sub(b.Min) {
		t.Fatalf("decoded %v, encoded %v", got.Bounds(), b)
	}
	for y := b.Min.Y; y < b.Max.Y; y++ {
		for x := b.Min.X; x < b.Max.X; x++ {
			if c := color.RGBAModel.Convert(got.At(x-b.Min.X, y-b.Min.Y)); c != img.RGBAAt(x, y) {
				t.Fatalf("pixel (%d,%d) decodes to %v, encoded %v", x, y, c, img.RGBAAt(x, y))
			}
		}
	}
}

// checkPromoted fails t unless a frame of img is an *image.RGBA of
// img's rows.
func checkPromoted(t *testing.T, name string, img *image.RGBA, f *Frame) {
	t.Helper()
	rgba, promoted := f.Image().(*image.RGBA)
	if !promoted {
		t.Fatalf("%s: the frame is %T, not promoted", name, f.Image())
	}
	for y := 0; y < img.Rect.Dy(); y++ {
		off := img.PixOffset(img.Rect.Min.X, img.Rect.Min.Y+y)
		if !bytes.Equal(rgba.Pix[y*rgba.Stride:(y+1)*rgba.Stride], img.Pix[off:off+4*img.Rect.Dx()]) {
			t.Fatalf("%s: promoted row %d differs from the image's", name, y)
		}
	}
}

// checkFrame fails t unless img, collected into frames in bands rng
// splits (row by row when rng is nil), encodes as the oracle does. An
// exact frame is the oracle's palette PNG when the oracle writes one;
// otherwise it is promoted to img and encodes at every fidelity as Encode
// encodes img. A frame that is not exact keeps its palette exactly when
// the oracle writes one, and encodes at every fidelity as Encode does.
func checkFrame(t *testing.T, name string, img *image.RGBA, rng *rand.Rand) {
	t.Helper()
	want, ok, err := encodeExact(img)
	if err != nil {
		t.Fatal(err)
	}
	empty := img.Rect.Empty()
	f := collect(img, rng, true)
	if ok {
		data, mime, err := f.Encode(FidelityLow)
		if err != nil || mime != "image/png" || !bytes.Equal(data, want) {
			t.Fatalf("%s: exact encode is %d bytes of %s (err %v), oracle %d bytes", name, len(data), mime, err, len(want))
		}
		checkExact(t, data, img)
		if f.Image() != nil {
			t.Fatalf("%s: an exact frame with a palette kept a %T", name, f.Image())
		}
	} else if !empty {
		checkPromoted(t, name+" (exact)", img, f)
	}
	nf := collect(img, rng, false)
	if _, paletted := nf.Image().(*image.Paletted); paletted != ok && !empty {
		t.Fatalf("%s: frame kept its palette %v, oracle exact %v", name, paletted, ok)
	}
	if !ok && !empty {
		checkPromoted(t, name, img, nf)
	}
	frames := map[string]*Frame{"index": nf}
	if !ok {
		frames["promoted exact"] = f
	}
	for _, fid := range []Fidelity{FidelityHigh, FidelityLow, FidelityMedium, FidelityThumb} {
		want, err := Encode(img, fid)
		if err != nil {
			t.Fatal(err)
		}
		for kind, f := range frames {
			if data, mime, err := f.Encode(fid); err != nil || mime != fid.MIME() || !bytes.Equal(data, want) {
				t.Fatalf("%s: %v encode of the %s frame is %d bytes of %s (err %v), Encode of the image %d bytes",
					name, fid, kind, len(data), mime, err, len(want))
			}
		}
	}
	if _, paletted := nf.Image().(*image.Paletted); paletted != ok && !empty {
		t.Fatalf("%s: encoding turned a frame with an exact palette into RGBA", name)
	}
}

// TestEncodeExactBoundary: up to 256 colours an exact frame is encoded as
// an exact palette PNG, packed at 1, 2 or 4 bits an index up to 16; from
// the 257th, or a colour the palette cannot give back, it is left to the
// fidelity ladder.
func TestEncodeExactBoundary(t *testing.T) {
	translucent := withColours(37, 7, 5)
	translucent.SetRGBA(20, 3, color.RGBA{R: 0x80, A: 0x80})
	for _, tc := range []struct {
		name string
		img  *image.RGBA
		ok   bool
	}{
		{"1 colour", withColours(40, 30, 1), true},
		{"1 colour, odd width", withColours(37, 5, 1), true},
		{"2 colours, odd width", withColours(37, 5, 2), true},
		{"3 colours, odd width", withColours(13, 5, 3), true},
		{"4 colours, odd width", withColours(37, 5, 4), true},
		{"5 colours, odd width", withColours(37, 5, 5), true},
		{"16 colours", withColours(40, 30, 16), true},
		{"16 colours, odd width", withColours(37, 5, 16), true},
		{"17 colours", withColours(40, 30, 17), true},
		{"256 colours", withColours(40, 30, 256), true},
		{"257 colours", withColours(40, 30, 257), false},
		{"gradient", gradient(64, 64), false},
		{"transparent", solid(5, 5, color.RGBA{}), true},
		{"translucent entry, packed", translucent, true},
		// Premultiplied 1/255 red at alpha 2 has no NRGBA palette entry
		// that decodes back to it.
		{"lossy alpha", solid(5, 5, color.RGBA{R: 1, A: 2}), false},
		{"sub-image", withColours(40, 30, 200).SubImage(image.Rect(3, 4, 20, 25)).(*image.RGBA), true},
	} {
		want, ok, err := encodeExact(tc.img)
		if err != nil || ok != tc.ok {
			t.Fatalf("%s: oracle exact %v (err %v), want %v", tc.name, ok, err, tc.ok)
		}
		data, mime, err := collect(tc.img, nil, true).Encode(FidelityLow)
		if err != nil || (mime == "image/png") != tc.ok {
			t.Fatalf("%s: %s, err %v; want exact %v", tc.name, mime, err, tc.ok)
		}
		if tc.ok {
			if !bytes.Equal(data, want) {
				t.Fatalf("%s: %d bytes, oracle %d", tc.name, len(data), len(want))
			}
			checkExact(t, data, tc.img)
		}
	}
}

// TestExactFrameMissingRows: the rows an exact frame was never given are
// palette index 0, as in an *image.Paletted, packed or not.
func TestExactFrameMissingRows(t *testing.T) {
	for _, n := range []int{5, 40} {
		img := withColours(37, 10, n)
		f := NewFrame(37, 10, true)
		f.Add(img.SubImage(image.Rect(0, 0, 37, 6)).(*image.RGBA))
		for y := 6; y < 10; y++ {
			for x := 0; x < 37; x++ {
				img.SetRGBA(x, y, img.RGBAAt(0, 0))
			}
		}
		want, ok, err := encodeExact(img)
		if err != nil || !ok {
			t.Fatalf("%d colours: oracle exact %v, err %v", n, ok, err)
		}
		if data, _, err := f.Encode(FidelityLow); err != nil || !bytes.Equal(data, want) {
			t.Fatalf("%d colours: %d bytes (err %v), oracle %d", n, len(data), err, len(want))
		}
	}
}

// TestFrameMatchesOracle: a frame collected row by row, in any split into
// bands, encodes as the oracle does when it has at most 256 colours the
// palette keeps, and as Encode encodes it otherwise: packed at 1, 2 or 4
// bits at odd widths and past the rows a frame holds before it makes room
// for all of them, with a translucent entry, with a stream that passes
// 32 KB in stored blocks, and whether the colour that turns it into RGBA
// comes before the stream starts, on the first row after the one that
// brings the 17th colour, a middle row or the last, or is translucent.
// Then 300 random images of 1 to 257 colours in random bands.
func TestFrameMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	translucent := withColours(30, 20, 40)
	translucent.SetRGBA(17, 11, color.RGBA{R: 1, A: 2})
	keptAlpha := withColours(30, 20, 40)
	keptAlpha.SetRGBA(17, 11, color.RGBA{R: 0x80, G: 0x40, A: 0x80})
	packedAlpha := withColours(13, 9, 5)
	packedAlpha.SetRGBA(6, 4, color.RGBA{B: 0x40, A: 0x40})
	for _, tc := range []struct {
		name string
		img  *image.RGBA
	}{
		{"flat", withColours(61, 37, 48)},
		{"1 colour", withColours(33, 7, 1)},
		{"2 colours", withColours(33, 7, 2)},
		{"3 colours", withColours(7, 3, 3)},
		{"4 colours", withColours(33, 7, 4)},
		{"5 colours", withColours(33, 7, 5)},
		{"16 colours", withColours(33, 7, 16)},
		{"17 colours", withColours(33, 7, 17)},
		{"5 colours past the held rows", withColours(37, 100, 5)},
		{"17th colour past the held rows", withColours(37, 100, 17)},
		{"1 pixel wide", withColours(1, 40, 9)},
		{"packed with a translucent entry", packedAlpha},
		{"256 colours", withColours(300, 9, 256)},
		{"incompressible, past 32 KB", paletteNoise(rng, 301, 240, 256)},
		{"promoted on row 0", promotedAt(rng, 300, 9, 256, 0)},
		{"promoted mid-row", promotedAt(rng, 300, 9, 150, 4)},
		{"promoted at the last row's start", promotedAt(rng, 300, 9, 0, 8)},
		{"promoted at the last pixel", promotedAt(rng, 300, 9, 299, 8)},
		{"streamed, promoted on the next row", streamedThenPromoted(301, 10, 2, 3, false)},
		{"streamed, promoted on a middle row", streamedThenPromoted(301, 10, 2, 6, false)},
		{"streamed, promoted on the last row", streamedThenPromoted(301, 10, 2, 9, false)},
		{"streamed, lossy alpha on a middle row", streamedThenPromoted(301, 10, 2, 6, true)},
		{"translucent", translucent},
		{"kept alpha", keptAlpha},
		{"noise", randomRGBA(rng, 45, 33)},
	} {
		checkFrame(t, tc.name+" row by row", tc.img, nil)
		for i := 0; i < 3; i++ {
			checkFrame(t, tc.name+" in bands", tc.img, rng)
		}
	}
	for i := 0; i < 300; i++ {
		w, h, n := 1+rng.Intn(70), 1+rng.Intn(30), 1+rng.Intn(257)
		checkFrame(t, fmt.Sprintf("random %d×%d of %d colours", w, h, n), randomPalette(rng, w, h, n), rng)
	}
}

// TestEmptyFrameEncodes: a frame with no pixels, whose palette is empty,
// encodes or fails to without a panic, exact or not.
func TestEmptyFrameEncodes(t *testing.T) {
	for _, exact := range []bool{false, true} {
		for _, f := range []func() *Frame{
			func() *Frame { return NewFrame(0, 0, exact) },
			func() *Frame { return NewFrame(0, 3, exact) },
			func() *Frame { return NewFrame(3, 2, exact) }, // no rows added
		} {
			for _, fid := range []Fidelity{FidelityLow, FidelityMedium, FidelityThumb, FidelityHigh} {
				if _, mime, _ := f().Encode(fid); mime != fid.MIME() {
					t.Fatalf("an empty frame (exact %v) encoded as %s at %v", exact, mime, fid)
				}
			}
		}
	}
}

// FuzzEncodeExact: for any small RGBA fed into an exact Frame in any
// split into bands, the frame's encoding is the oracle's, and decodes to
// exactly that RGBA; a frame the oracle declines is encoded as Encode
// encodes the RGBA.
func FuzzEncodeExact(f *testing.F) {
	f.Add(uint8(1), uint8(1), false, []byte{1, 2, 3, 255})
	f.Add(uint8(24), uint8(24), true, []byte("a page of text and boxes"))
	f.Add(uint8(20), uint8(20), false, []byte{0, 0, 0, 0, 9, 8, 7, 128, 1, 0, 0, 2})
	f.Add(uint8(23), uint8(5), true, []byte{7, 7, 7, 255, 7, 7, 7, 255, 1, 2, 3, 255})
	f.Fuzz(func(t *testing.T, w, h uint8, opaque bool, pix []byte) {
		img := image.NewRGBA(image.Rect(0, 0, int(w%24)+1, int(h%24)+1))
		if len(pix) > 0 {
			for i := range img.Pix {
				img.Pix[i] = pix[i%len(pix)]
				if opaque && i%4 == 3 {
					img.Pix[i] = 0xff
				}
			}
		}
		want, ok, err := encodeExact(img)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			if want, err = Encode(img, FidelityLow); err != nil {
				t.Fatal(err)
			}
		}
		data, _, err := collect(img, rand.New(rand.NewSource(int64(len(pix)))), true).Encode(FidelityLow)
		if err != nil || !bytes.Equal(data, want) {
			t.Fatalf("frame encodes %d bytes (err %v), oracle %d (exact %v)", len(data), err, len(want), ok)
		}
		if ok {
			checkExact(t, data, img)
		}
	})
}
