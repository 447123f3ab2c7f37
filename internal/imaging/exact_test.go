package imaging

import (
	"bytes"
	"image"
	"image/color"
	"image/png"
	"testing"
)

// withColours is a w×h image of n distinct opaque colours in stripes.
func withColours(w, h, n int) *image.RGBA {
	img := image.NewRGBA(image.Rect(0, 0, w, h))
	for i := 0; i < w*h; i++ {
		k := i * n / (w * h)
		img.SetRGBA(i%w, i/w, color.RGBA{R: uint8(k), G: uint8(k >> 8), B: 7, A: 0xff})
	}
	return img
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

// TestEncodeExactBoundary: up to 256 colours an image is encoded as an
// exact palette PNG; from the 257th it is left to the fidelity ladder.
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
		data, ok, err := EncodeExact(tc.img)
		if err != nil || ok != tc.ok {
			t.Fatalf("%s: ok %v, err %v; want ok %v", tc.name, ok, err, tc.ok)
		}
		if !ok {
			if data != nil {
				t.Fatalf("%s: %d bytes beside ok false", tc.name, len(data))
			}
			continue
		}
		checkExact(t, data, tc.img)
	}
}

// FuzzEncodeExact: for any small RGBA, EncodeExact either declines or
// produces a PNG that decodes to exactly that RGBA.
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
		data, ok, err := EncodeExact(img)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			checkExact(t, data, img)
		}
	})
}
