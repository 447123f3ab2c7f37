package imaging

import (
	"bytes"
	"encoding/binary"
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

// collect feeds img into a Frame in bands of random heights, one row at a
// time when rng is nil.
func collect(img *image.RGBA, rng *rand.Rand) *Frame {
	b := img.Bounds()
	f := NewFrame(b.Dx(), b.Dy())
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

// checkFrame fails t unless the frame img was collected into encodes as
// the oracle does: exactly, when the oracle can, and otherwise as Encode
// encodes img, at every fidelity.
func checkFrame(t *testing.T, name string, img *image.RGBA, f *Frame) {
	t.Helper()
	want, ok, err := encodeExact(img)
	if err != nil {
		t.Fatal(err)
	}
	if _, paletted := f.Image().(*image.Paletted); paletted != ok && !img.Rect.Empty() {
		t.Fatalf("%s: frame kept its palette %v, oracle exact %v", name, paletted, ok)
	}
	if rgba, promoted := f.Image().(*image.RGBA); promoted {
		for y := 0; y < img.Rect.Dy(); y++ {
			off := img.PixOffset(img.Rect.Min.X, img.Rect.Min.Y+y)
			if !bytes.Equal(rgba.Pix[y*rgba.Stride:(y+1)*rgba.Stride], img.Pix[off:off+4*img.Rect.Dx()]) {
				t.Fatalf("%s: promoted row %d differs from the image's", name, y)
			}
		}
	}
	if ok {
		data, mime, err := f.Encode(FidelityLow, true)
		if err != nil || mime != "image/png" || !bytes.Equal(data, want) {
			t.Fatalf("%s: exact encode is %d bytes of %s (err %v), oracle %d bytes", name, len(data), mime, err, len(want))
		}
		checkExact(t, data, img)
	}
	for _, fid := range []Fidelity{FidelityHigh, FidelityLow, FidelityMedium, FidelityThumb} {
		want, err := Encode(img, fid)
		if err != nil {
			t.Fatal(err)
		}
		if data, mime, err := f.Encode(fid, false); err != nil || mime != fid.MIME() || !bytes.Equal(data, want) {
			t.Fatalf("%s: %v encode is %d bytes of %s (err %v), Encode of the frame %d bytes", name, fid, len(data), mime, err, len(want))
		}
		if !ok {
			if data, _, _ := f.Encode(fid, true); !bytes.Equal(data, want) {
				t.Fatalf("%s: exact %v encode of a frame with no exact palette differs from Encode", name, fid)
			}
		}
	}
	if _, paletted := f.Image().(*image.Paletted); paletted != ok && !img.Rect.Empty() {
		t.Fatalf("%s: encoding turned a frame with an exact palette into RGBA", name)
	}
}

// TestEncodeExactBoundary: up to 256 colours a frame is encoded as an
// exact palette PNG; from the 257th, or a colour the palette cannot give
// back, it is left to the fidelity ladder.
func TestEncodeExactBoundary(t *testing.T) {
	for _, tc := range []struct {
		name string
		img  *image.RGBA
		ok   bool
	}{
		{"1 colour", withColours(40, 30, 1), true},
		{"16 colours", withColours(40, 30, 16), true},
		{"17 colours", withColours(40, 30, 17), true},
		{"256 colours", withColours(40, 30, 256), true},
		{"257 colours", withColours(40, 30, 257), false},
		{"gradient", gradient(64, 64), false},
		{"transparent", solid(5, 5, color.RGBA{}), true},
		// Premultiplied 1/255 red at alpha 2 has no NRGBA palette entry
		// that decodes back to it.
		{"lossy alpha", solid(5, 5, color.RGBA{R: 1, A: 2}), false},
		{"sub-image", withColours(40, 30, 200).SubImage(image.Rect(3, 4, 20, 25)).(*image.RGBA), true},
	} {
		data, mime, err := collect(tc.img, nil).Encode(FidelityLow, true)
		if err != nil || (mime == "image/png") != tc.ok {
			t.Fatalf("%s: %s, err %v; want exact %v", tc.name, mime, err, tc.ok)
		}
		if tc.ok {
			checkExact(t, data, tc.img)
		}
	}
}

// TestFrameMatchesOracle: a frame collected row by row, in any split into
// bands, encodes as the oracle does when it has at most 256 colours the
// palette keeps, and as Encode encodes it otherwise — whether the colour
// that turns it into RGBA comes on the first row, mid-row or on the last
// row, or is translucent.
func TestFrameMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	translucent := withColours(30, 20, 40)
	translucent.SetRGBA(17, 11, color.RGBA{R: 1, A: 2})
	keptAlpha := withColours(30, 20, 40)
	keptAlpha.SetRGBA(17, 11, color.RGBA{R: 0x80, G: 0x40, A: 0x80})
	for _, tc := range []struct {
		name string
		img  *image.RGBA
	}{
		{"flat", withColours(61, 37, 48)},
		{"256 colours", withColours(300, 9, 256)},
		{"promoted on row 0", promotedAt(rng, 300, 9, 256, 0)},
		{"promoted mid-row", promotedAt(rng, 300, 9, 150, 4)},
		{"promoted at the last row's start", promotedAt(rng, 300, 9, 0, 8)},
		{"promoted at the last pixel", promotedAt(rng, 300, 9, 299, 8)},
		{"translucent", translucent},
		{"kept alpha", keptAlpha},
		{"noise", randomRGBA(rng, 45, 33)},
	} {
		checkFrame(t, tc.name+" row by row", tc.img, collect(tc.img, nil))
		for i := 0; i < 3; i++ {
			checkFrame(t, tc.name+" in bands", tc.img, collect(tc.img, rng))
		}
	}
}

// TestEmptyFrameEncodes: a frame with no pixels, whose palette is empty,
// encodes or fails to without a panic.
func TestEmptyFrameEncodes(t *testing.T) {
	for _, f := range []func() *Frame{
		func() *Frame { return NewFrame(0, 0) },
		func() *Frame { return NewFrame(0, 3) },
		func() *Frame { return NewFrame(3, 2) }, // no rows added
	} {
		for _, fid := range []Fidelity{FidelityLow, FidelityMedium, FidelityThumb, FidelityHigh} {
			for _, exact := range []bool{false, true} {
				if _, mime, _ := f().Encode(fid, exact); mime != fid.MIME() {
					t.Fatalf("an empty frame encoded as %s at %v", mime, fid)
				}
			}
		}
	}
}

// FuzzEncodeExact: for any small RGBA fed into a Frame in any split into
// bands, the frame's exact encoding is the oracle's, and decodes to
// exactly that RGBA; a frame the oracle declines is encoded as Encode
// encodes the RGBA.
func FuzzEncodeExact(f *testing.F) {
	f.Add(uint8(1), uint8(1), false, []byte{1, 2, 3, 255})
	f.Add(uint8(24), uint8(24), true, []byte("a page of text and boxes"))
	f.Add(uint8(20), uint8(20), false, []byte{0, 0, 0, 0, 9, 8, 7, 128, 1, 0, 0, 2})
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
		data, _, err := collect(img, rand.New(rand.NewSource(int64(len(pix))))).Encode(FidelityLow, true)
		if err != nil || !bytes.Equal(data, want) {
			t.Fatalf("frame encodes %d bytes (err %v), oracle %d (exact %v)", len(data), err, len(want), ok)
		}
		if ok {
			checkExact(t, data, img)
		}
	})
}
