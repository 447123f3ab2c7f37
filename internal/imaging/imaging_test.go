package imaging

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"image"
	"image/color"
	"image/gif"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"
)

func gradient(w, h int) *image.RGBA {
	img := image.NewRGBA(image.Rect(0, 0, w, h))
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			img.SetRGBA(x, y, color.RGBA{
				R: uint8(x * 255 / max(w-1, 1)),
				G: uint8(y * 255 / max(h-1, 1)),
				B: 128, A: 255,
			})
		}
	}
	return img
}

func solid(w, h int, c color.RGBA) *image.RGBA {
	img := image.NewRGBA(image.Rect(0, 0, w, h))
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			img.SetRGBA(x, y, c)
		}
	}
	return img
}

func TestFidelityStringsAndMIME(t *testing.T) {
	if FidelityHigh.String() != "high" || FidelityThumb.String() != "thumb" || Fidelity(0).String() != "unknown" {
		t.Fatal("strings wrong")
	}
	if FidelityHigh.MIME() != "image/png" || FidelityLow.MIME() != "image/jpeg" {
		t.Fatal("mime wrong")
	}
	if FidelityHigh.Ext() != ".png" || FidelityMedium.Ext() != ".jpg" {
		t.Fatal("ext wrong")
	}
}

// noisy builds a deterministic high-entropy image, which behaves like a
// text-dense page snapshot under the encoders (PNG large, JPEG smaller).
func noisy(w, h int) *image.RGBA {
	img := image.NewRGBA(image.Rect(0, 0, w, h))
	state := uint32(12345)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			state = state*1664525 + 1013904223
			v := uint8(state >> 24)
			img.SetRGBA(x, y, color.RGBA{R: v, G: v, B: v, A: 255})
		}
	}
	return img
}

func TestEncodeLadderMonotone(t *testing.T) {
	img := noisy(400, 300)
	sizes := map[Fidelity]int{}
	for _, f := range []Fidelity{FidelityHigh, FidelityMedium, FidelityLow, FidelityThumb} {
		data, err := Encode(img, f)
		if err != nil {
			t.Fatalf("%v: %v", f, err)
		}
		sizes[f] = len(data)
	}
	if !(sizes[FidelityHigh] > sizes[FidelityMedium] &&
		sizes[FidelityMedium] > sizes[FidelityLow] &&
		sizes[FidelityLow] > sizes[FidelityThumb]) {
		t.Fatalf("ladder not monotone: %v", sizes)
	}
}

func TestEncodeUnknownFidelity(t *testing.T) {
	if _, err := Encode(gradient(4, 4), Fidelity(99)); err == nil {
		t.Fatal("expected error")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	img := solid(10, 10, color.RGBA{10, 200, 30, 255})
	data, err := EncodePNG(img)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	r, g, b, _ := back.At(5, 5).RGBA()
	if uint8(r>>8) != 10 || uint8(g>>8) != 200 || uint8(b>>8) != 30 {
		t.Fatalf("round trip lost color: %d %d %d", r>>8, g>>8, b>>8)
	}
}

func TestDecodeInvalid(t *testing.T) {
	if _, err := Decode([]byte("not an image")); err == nil {
		t.Fatal("expected error")
	}
}

// oversizedPNG is a 65-byte PNG whose IHDR declares a w×h RGBA image,
// followed by the start of a zlib stream and IEND: enough for a decoder
// to size the image and begin reading pixels.
func oversizedPNG(w, h uint32) []byte {
	chunk := func(out []byte, typ string, data []byte) []byte {
		out = binary.BigEndian.AppendUint32(out, uint32(len(data)))
		body := append([]byte(typ), data...)
		out = append(out, body...)
		return binary.BigEndian.AppendUint32(out, crc32.ChecksumIEEE(body))
	}
	ihdr := binary.BigEndian.AppendUint32(nil, w)
	ihdr = binary.BigEndian.AppendUint32(ihdr, h)
	ihdr = append(ihdr, 8, 6, 0, 0, 0) // 8-bit RGBA, not interlaced
	out := []byte("\x89PNG\r\n\x1a\n")
	out = chunk(out, "IHDR", ihdr)
	out = chunk(out, "IDAT", []byte{0x78, 0x9c, 0, 0, 0, 0, 0, 0})
	return chunk(out, "IEND", nil)
}

// oversizedGIF is a GIF whose logical screen and one frame declare w×h,
// with no colour table and no pixel data.
func oversizedGIF(w, h uint16) []byte {
	out := []byte("GIF89a")
	out = binary.LittleEndian.AppendUint16(out, w)
	out = binary.LittleEndian.AppendUint16(out, h)
	out = append(out, 0, 0, 0, 0x2c, 0, 0, 0, 0) // no global table; frame at 0,0
	out = binary.LittleEndian.AppendUint16(out, w)
	out = binary.LittleEndian.AppendUint16(out, h)
	return append(out, 0, 2, 0, 0x3b)
}

// TestDecodeRefusesOversizedImage: an origin image whose header declares
// more than maxDecodePixels is an error, decided from the header alone,
// so a few bytes cannot make the decoder allocate gigabytes.
func TestDecodeRefusesOversizedImage(t *testing.T) {
	for _, tc := range []struct {
		name string
		data []byte
	}{
		{"png 60000x60000", oversizedPNG(60000, 60000)},
		{"png one row over the cap", oversizedPNG(4096, 4097)},
		{"gif 65535x65535", oversizedGIF(65535, 65535)},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := Decode(tc.data)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s (%d bytes): decoded, want an error", tc.name, len(tc.data))
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
			t.Errorf("%s: decoding allocated %d bytes, want under 1 MB", tc.name, got)
		}
	}
	if n := len(oversizedPNG(60000, 60000)); n != 65 {
		t.Errorf("oversized PNG is %d bytes, want 65", n)
	}
}

// TestDecodeRefusesEmptyImage: a 0×0 GIF, 34 bytes that image/gif decodes,
// is an error, so a renderer paints its placeholder instead; and ScaleInto
// from an empty source still writes every destination pixel.
func TestDecodeRefusesEmptyImage(t *testing.T) {
	var buf bytes.Buffer
	if err := gif.Encode(&buf, image.NewPaletted(image.Rect(0, 0, 0, 0), color.Palette{color.Black, color.White}), nil); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 34 {
		t.Fatalf("empty GIF is %d bytes, want 34", buf.Len())
	}
	if img, err := Decode(buf.Bytes()); err == nil {
		t.Fatalf("decoded a %v image, want an error", img.Bounds())
	}
	dst := image.NewRGBA(image.Rect(0, 0, 5, 3))
	for _, src := range []image.Image{image.NewRGBA(image.Rect(0, 0, 0, 4)), image.NewPaletted(image.Rect(2, 2, 9, 2), nil)} {
		for i := range dst.Pix {
			dst.Pix[i] = 0xaa
		}
		ScaleInto(dst, src)
		if !bytes.Equal(dst.Pix, make([]uint8, len(dst.Pix))) {
			t.Fatalf("ScaleInto from a %v source left %v", src.Bounds(), dst.Pix)
		}
	}
}

func TestJPEGQualityClamped(t *testing.T) {
	img := gradient(50, 50)
	lo, err := EncodeJPEG(img, -5)
	if err != nil {
		t.Fatal(err)
	}
	hi, err := EncodeJPEG(img, 500)
	if err != nil {
		t.Fatal(err)
	}
	if len(lo) >= len(hi) {
		t.Fatal("clamped qualities should still order")
	}
}

func TestScaleDown(t *testing.T) {
	img := solid(100, 100, color.RGBA{50, 60, 70, 255})
	out := Scale(img, 25, 25)
	if out.Bounds().Dx() != 25 || out.Bounds().Dy() != 25 {
		t.Fatalf("bounds = %v", out.Bounds())
	}
	if got := out.RGBAAt(12, 12); got != (color.RGBA{50, 60, 70, 255}) {
		t.Fatalf("solid color changed: %v", got)
	}
}

func TestScaleUp(t *testing.T) {
	img := solid(10, 10, color.RGBA{90, 90, 90, 255})
	out := Scale(img, 40, 40)
	if out.Bounds().Dx() != 40 {
		t.Fatalf("bounds = %v", out.Bounds())
	}
	if got := out.RGBAAt(20, 20); got != (color.RGBA{90, 90, 90, 255}) {
		t.Fatalf("solid upscale changed: %v", got)
	}
}

func TestScaleDownAverages(t *testing.T) {
	// Left half black, right half white; 2x1 result should be one black
	// and one white pixel.
	img := image.NewRGBA(image.Rect(0, 0, 100, 10))
	for y := 0; y < 10; y++ {
		for x := 0; x < 100; x++ {
			c := color.RGBA{0, 0, 0, 255}
			if x >= 50 {
				c = color.RGBA{255, 255, 255, 255}
			}
			img.SetRGBA(x, y, c)
		}
	}
	out := Scale(img, 2, 1)
	if out.RGBAAt(0, 0).R != 0 || out.RGBAAt(1, 0).R != 255 {
		t.Fatalf("halves = %v %v", out.RGBAAt(0, 0), out.RGBAAt(1, 0))
	}
}

func TestScaleClampsToOne(t *testing.T) {
	img := solid(10, 10, color.RGBA{1, 2, 3, 255})
	out := Scale(img, 0, -3)
	if out.Bounds().Dx() != 1 || out.Bounds().Dy() != 1 {
		t.Fatalf("bounds = %v", out.Bounds())
	}
}

func TestScaleToWidthPreservesAspect(t *testing.T) {
	img := solid(200, 100, color.RGBA{5, 5, 5, 255})
	out := ScaleToWidth(img, 50)
	if out.Bounds().Dx() != 50 || out.Bounds().Dy() != 25 {
		t.Fatalf("bounds = %v", out.Bounds())
	}
}

func TestScaleFactor(t *testing.T) {
	img := solid(80, 40, color.RGBA{5, 5, 5, 255})
	out := ScaleFactor(img, 0.5)
	if out.Bounds().Dx() != 40 || out.Bounds().Dy() != 20 {
		t.Fatalf("bounds = %v", out.Bounds())
	}
}

// randomRGBA is a w×h image of random pixels (alpha included) that is a
// sub-image of a larger allocation, so its origin and stride are not the
// zero-anchored ones.
func randomRGBA(rng *rand.Rand, w, h int) *image.RGBA {
	ox, oy := rng.Intn(9), rng.Intn(9)
	big := image.NewRGBA(image.Rect(0, 0, ox+w+rng.Intn(5), oy+h+rng.Intn(5)))
	rng.Read(big.Pix)
	return big.SubImage(image.Rect(ox, oy, ox+w, oy+h)).(*image.RGBA)
}

// generic hides the concrete type so ScaleInto takes the image.Image path.
type generic struct{ image.Image }

// TestBoxFilterMatchesGenericBoxScale: the typed filter is the generic
// box filter, byte for byte, for every shape that reaches it — both axes
// minified, one minified and the other magnified or equal, 1×N and N×1 —
// whether it folds the source whole or any partition of the destination
// rows into runs, each folded from its own starting row out of just the
// source rows SourceRows gives it, in any order and by either of two
// filters. Where the filter magnifies vertically one source row feeds two
// runs.
func TestBoxFilterMatchesGenericBoxScale(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	sizes := [][4]int{{1, 40, 1, 7}, {40, 1, 9, 1}, {97, 53, 31, 17}, {64, 48, 64, 11}, {33, 9, 5, 20}, {9, 33, 20, 5},
		{1024, 3, 460, 1}, {50, 4, 7, 6}, {40, 7, 13, 23}, {12, 2, 5, 5}}
	for i := 0; i < 60; i++ {
		sw, sh := 1+rng.Intn(120), 1+rng.Intn(120)
		sizes = append(sizes, [4]int{sw, sh, 1 + rng.Intn(sw+10), 1 + rng.Intn(sh+10)})
	}
	for _, sz := range sizes {
		sw, sh, w, h := sz[0], sz[1], sz[2], sz[3]
		if w >= sw && h >= sh {
			continue // magnification: bilinear, not this filter
		}
		src := randomRGBA(rng, sw, sh)
		want := image.NewRGBA(image.Rect(0, 0, w, h))
		ScaleInto(want, generic{src})

		whole := image.NewRGBA(image.Rect(0, 0, w, h))
		ScaleInto(whole, src)
		if !bytes.Equal(whole.Pix, want.Pix) {
			t.Fatalf("%dx%d -> %dx%d: typed filter differs from generic boxScale", sw, sh, w, h)
		}
		for _, cuts := range rowPartitions(rng, h) {
			filters := []*BoxFilter{NewBoxFilter(w, h, sw, sh), NewBoxFilter(w, h, sw, sh)}
			got := image.NewRGBA(image.Rect(0, 0, w, h))
			for i, k := range rng.Perm(len(cuts) - 1) {
				dy0, dy1 := cuts[k], cuts[k+1]
				f := filters[i%2]
				sy0, sy1 := f.SourceRows(dy0, dy1)
				rows := src.SubImage(image.Rect(src.Rect.Min.X, src.Rect.Min.Y+sy0, src.Rect.Max.X, src.Rect.Min.Y+sy1)).(*image.RGBA)
				f.Fold(got.SubImage(image.Rect(0, dy0, w, dy1)).(*image.RGBA), rows)
			}
			if !bytes.Equal(got.Pix, want.Pix) {
				t.Fatalf("%dx%d -> %dx%d in runs cut at %v: differs from generic boxScale", sw, sh, w, h, cuts)
			}
		}
	}
}

// TestDivisorIsDivision: a divisor's multiplication is integer division
// for divisors from 2 to 2^62 and dividends up to 2^63-1, at and beside
// every multiple of the divisor it is tried on.
func TestDivisorIsDivision(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 20000; i++ {
		d := uint64(2 + rng.Intn(1<<12))
		if i%2 == 1 {
			d = 2 + rng.Uint64()>>uint(2+rng.Intn(60))
		}
		v := newDivisor(d)
		for _, x := range []uint64{0, 1, d - 1, d, d + 1, rng.Uint64() >> 1, 1<<63 - 1, (1<<63 - 1) / d * d, (1<<63-1)/d*d - 1} {
			if got := v.div(x); got != x/d {
				t.Fatalf("%d / %d: got %d, want %d", x, d, got, x/d)
			}
		}
	}
}

// rowPartitions returns partitions of h destination rows into runs, each
// as its cut points from 0 to h: every partition when there are at most
// 32, otherwise runs of 1, 2, 3, 7 and 64 rows and three random partitions.
func rowPartitions(rng *rand.Rand, h int) [][]int {
	var parts [][]int
	if h <= 6 {
		for mask := 0; mask < 1<<(h-1); mask++ {
			cuts := []int{0}
			for dy := 1; dy < h; dy++ {
				if mask&(1<<(dy-1)) != 0 {
					cuts = append(cuts, dy)
				}
			}
			parts = append(parts, append(cuts, h))
		}
		return parts
	}
	for _, run := range []int{1, 2, 3, 7, 64} {
		cuts := []int{0}
		for dy := run; dy < h; dy += run {
			cuts = append(cuts, dy)
		}
		parts = append(parts, append(cuts, h))
	}
	for range 3 {
		cuts := []int{0}
		for dy := 1; dy < h; dy++ {
			if rng.Intn(3) == 0 {
				cuts = append(cuts, dy)
			}
		}
		parts = append(parts, append(cuts, h))
	}
	return parts
}

// flatPage is a flat 1024×3200 page — a few colours in blocks and stripes,
// as the painter's output.
func flatPage() *image.RGBA {
	const sw, sh = 1024, 3200
	src := image.NewRGBA(image.Rect(0, 0, sw, sh))
	for y := 0; y < sh; y++ {
		for x := 0; x < sw; x++ {
			c := color.RGBA{255, 255, 255, 255}
			switch {
			case y%40 < 24 && x%300 < 200:
				c = color.RGBA{0xdd, 0xdd, 0xee, 255}
			case y%13 == 0 && x%7 < 3:
				c = color.RGBA{0x33, 0x33, 0x66, 255}
			}
			src.SetRGBA(x, y, c)
		}
	}
	return src
}

// BenchmarkBoxFilter folds flatPage to 0.45 in one run.
func BenchmarkBoxFilter(b *testing.B) {
	src := flatPage()
	sw, sh := src.Rect.Dx(), src.Rect.Dy()
	w, h := FactorSize(sw, sh, 0.45)
	dst := image.NewRGBA(image.Rect(0, 0, w, h))
	b.SetBytes(int64(len(src.Pix)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NewBoxFilter(w, h, sw, sh).Fold(dst, src)
	}
}

// BenchmarkFoldSpans folds flatPage, held as rows of spans, to 0.45 in
// one run: BenchmarkBoxFilter's work for a painter that paints spans.
func BenchmarkFoldSpans(b *testing.B) {
	src := flatPage()
	sw, sh := src.Rect.Dx(), src.Rect.Dy()
	rows := make([][]Span, sh)
	for y := range rows {
		for x := 0; x < sw; x++ {
			c := src.RGBAAt(x, y)
			if n := len(rows[y]); n > 0 && rows[y][n-1].C == c {
				rows[y][n-1].End++
			} else {
				rows[y] = append(rows[y], Span{End: int32(x + 1), C: c})
			}
		}
	}
	w, h := FactorSize(sw, sh, 0.45)
	dst := image.NewRGBA(image.Rect(0, 0, w, h))
	b.SetBytes(int64(len(src.Pix)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := NewBoxFilter(w, h, sw, sh)
		for dy := 0; dy < h; dy++ {
			sy0, sy1 := f.SourceRows(dy, dy+1)
			for _, row := range rows[sy0:sy1] {
				f.AddSpans(row)
			}
			f.FlushSpans(dst.Pix[dy*dst.Stride:], sy1-sy0)
		}
	}
}

// TestScaleIntoRGBAAllocsIndependentOfSize: minifying the painter's own
// type costs the filter's few bookkeeping allocations (the filter, its
// column spans and its column sums) however many pixels it reads — a
// per-pixel interface call shows up here as thousands.
func TestScaleIntoRGBAAllocsIndependentOfSize(t *testing.T) {
	allocs := func(sw, sh int) float64 {
		src := gradient(sw, sh)
		dst := image.NewRGBA(image.Rect(0, 0, sw*45/100, sh*45/100))
		return testing.AllocsPerRun(5, func() { ScaleInto(dst, src) })
	}
	small, large := allocs(64, 48), allocs(1024, 590)
	if small != large || large > 5 {
		t.Fatalf("ScaleInto allocates %v times for 64x48 and %v for 1024x590; want one small constant", small, large)
	}
}

func TestQuickScaleNeverPanics(t *testing.T) {
	img := gradient(13, 7)
	f := func(w, h int16) bool {
		out := Scale(img, int(w)%64, int(h)%64)
		return out.Bounds().Dx() >= 1 && out.Bounds().Dy() >= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestThumbQuarterScale(t *testing.T) {
	img := gradient(400, 200)
	data, err := Encode(img, FidelityThumb)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Bounds().Dx() != 100 || back.Bounds().Dy() != 50 {
		t.Fatalf("thumb bounds = %v", back.Bounds())
	}
}

// randomSpanRow is a row of sw columns as spans: one span, 1 px spans, or
// spans of random lengths; their colours come from a few, so neighbours may
// share one, and carry any alpha.
func randomSpanRow(rng *rand.Rand, sw int) []Span {
	colours := make([]color.RGBA, 1+rng.Intn(4))
	for i := range colours {
		colours[i] = color.RGBA{uint8(rng.Intn(256)), uint8(rng.Intn(256)), uint8(rng.Intn(256)), uint8(rng.Intn(256))}
	}
	var row []Span
	for x := 0; x < sw; {
		n := sw - x
		switch rng.Intn(3) {
		case 0:
			n = 1
		case 1:
			n = 1 + rng.Intn(n)
		}
		x += n
		row = append(row, Span{End: int32(x), C: colours[rng.Intn(len(colours))]})
	}
	return row
}

// TestFoldSpansMatchesFold: folding rows of spans is Fold of the same rows
// expanded to pixels, byte for byte, for every shape the filter takes —
// w == sw, h == sh, sw not a multiple of w, one axis magnified, 1 px wide
// or tall — for single-span rows and 1 px spans, and whether the rows are
// folded whole or in any partition of the destination rows into runs, in
// any order and by either of two filters.
func TestFoldSpansMatchesFold(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	sizes := [][4]int{{7, 5, 7, 2}, {20, 4, 6, 4}, {23, 9, 5, 3}, {1024, 6, 460, 2}, {10, 3, 25, 2}, {12, 30, 5, 40},
		{1, 12, 1, 5}, {9, 1, 4, 1}, {7, 7, 7, 7}, {97, 13, 31, 6}, {64, 33, 64, 11}}
	for i := 0; i < 40; i++ {
		sw, sh := 1+rng.Intn(150), 1+rng.Intn(40)
		sizes = append(sizes, [4]int{sw, sh, 1 + rng.Intn(sw+5), 1 + rng.Intn(min(sh, 6))})
	}
	for _, sz := range sizes {
		sw, sh, w, h := sz[0], sz[1], sz[2], sz[3]
		rows := make([][]Span, sh)
		src := image.NewRGBA(image.Rect(0, 0, sw, sh))
		for y := range rows {
			rows[y] = randomSpanRow(rng, sw)
			ExpandSpans(src.Pix[y*src.Stride:], rows[y])
		}
		want := image.NewRGBA(image.Rect(0, 0, w, h))
		NewBoxFilter(w, h, sw, sh).Fold(want, src)
		for _, cuts := range rowPartitions(rng, h) {
			filters := []*BoxFilter{NewBoxFilter(w, h, sw, sh), NewBoxFilter(w, h, sw, sh)}
			got := image.NewRGBA(image.Rect(0, 0, w, h))
			for i, k := range rng.Perm(len(cuts) - 1) {
				f := filters[i%2]
				for dy := cuts[k]; dy < cuts[k+1]; dy++ {
					sy0, sy1 := f.SourceRows(dy, dy+1)
					for sy := sy0; sy < sy1; sy++ {
						f.AddSpans(rows[sy])
					}
					f.FlushSpans(got.Pix[dy*got.Stride:], sy1-sy0)
				}
			}
			if !bytes.Equal(got.Pix, want.Pix) {
				t.Fatalf("%dx%d -> %dx%d in runs cut at %v: span fold differs from Fold at %v",
					sw, sh, w, h, cuts, firstDiff(got, want))
			}
		}
	}
}

// firstDiff is the first pixel, in raster order, where a and b differ.
func firstDiff(a, b *image.RGBA) image.Point {
	for y := a.Rect.Min.Y; y < a.Rect.Max.Y; y++ {
		for x := a.Rect.Min.X; x < a.Rect.Max.X; x++ {
			if a.RGBAAt(x, y) != b.RGBAAt(x, y) {
				return image.Pt(x, y)
			}
		}
	}
	return image.Pt(-1, -1)
}
