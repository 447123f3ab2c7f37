// Package imaging is the image post-processor of the m.Site pipeline
// (§3.3 "Image fidelity"): scaling and fidelity-ladder encoding that
// turns a ~600 KB full-page PNG snapshot into the 25–50 KB JPEG a mobile
// client actually downloads. A flat frame — a render of text and boxes
// with at most 256 colours — needs no ladder: a Frame holds it as palette
// indices and writes it as a palette PNG that is both exact and smaller
// than the JPEG.
package imaging

import (
	"bytes"
	"fmt"
	"image"
	"image/color"
	_ "image/gif" // registered for Decode: origin sites serve GIFs
	"image/jpeg"
	"image/png"
	"math/bits"
	"sync"
)

// Fidelity selects an output encoding/quality point on the ladder the
// attribute system exposes to the site administrator.
type Fidelity int

// Fidelity levels, ordered from largest to smallest output.
const (
	// FidelityHigh is lossless PNG at full resolution.
	FidelityHigh Fidelity = iota + 1
	// FidelityMedium is JPEG quality 75.
	FidelityMedium
	// FidelityLow is JPEG quality 40 — the paper's "reduced-fidelity jpg".
	FidelityLow
	// FidelityThumb is a quarter-scale JPEG quality 50 thumbnail.
	FidelityThumb
)

// String names the fidelity level.
func (f Fidelity) String() string {
	switch f {
	case FidelityHigh:
		return "high"
	case FidelityMedium:
		return "medium"
	case FidelityLow:
		return "low"
	case FidelityThumb:
		return "thumb"
	default:
		return "unknown"
	}
}

// MIME returns the encoded content type for the level.
func (f Fidelity) MIME() string {
	if f == FidelityHigh {
		return "image/png"
	}
	return "image/jpeg"
}

// Ext returns the conventional file extension for the level.
func (f Fidelity) Ext() string {
	if f == FidelityHigh {
		return ".png"
	}
	return ".jpg"
}

// Encode encodes img at the given fidelity level.
func Encode(img image.Image, f Fidelity) ([]byte, error) {
	switch f {
	case FidelityHigh:
		return EncodePNG(img)
	case FidelityMedium:
		return EncodeJPEG(img, 75)
	case FidelityLow:
		return EncodeJPEG(img, 40)
	case FidelityThumb:
		b := img.Bounds()
		thumb := Scale(img, b.Dx()/4, b.Dy()/4)
		return EncodeJPEG(thumb, 50)
	default:
		return nil, fmt.Errorf("imaging: unknown fidelity %d", f)
	}
}

// encBufPool recycles the scratch buffers Encode's encoders grow into. An
// encoder writing into a fresh buffer doubles it on its way to the
// image's size; reusing that capacity across renders leaves an encode
// one allocation of its own, the copy of its bytes. The encoded bytes are
// copied out before the buffer returns to the pool, so callers own their
// slices.
var encBufPool = sync.Pool{
	New: func() any { return new(bytes.Buffer) },
}

// encodeWith runs enc against a pooled buffer and copies the result out.
func encodeWith(enc func(*bytes.Buffer) error, kind string) ([]byte, error) {
	buf := encBufPool.Get().(*bytes.Buffer)
	buf.Reset()
	if err := enc(buf); err != nil {
		encBufPool.Put(buf)
		return nil, fmt.Errorf("imaging: encoding %s: %w", kind, err)
	}
	out := make([]byte, buf.Len())
	copy(out, buf.Bytes())
	encBufPool.Put(buf)
	return out, nil
}

// EncodePNG encodes img as PNG.
func EncodePNG(img image.Image) ([]byte, error) {
	return encodeWith(func(buf *bytes.Buffer) error {
		return png.Encode(buf, img)
	}, "png")
}

// EncodeJPEG encodes img as JPEG at the given quality (1-100).
func EncodeJPEG(img image.Image, quality int) ([]byte, error) {
	if quality < 1 {
		quality = 1
	}
	if quality > 100 {
		quality = 100
	}
	return encodeWith(func(buf *bytes.Buffer) error {
		return jpeg.Encode(buf, img, &jpeg.Options{Quality: quality})
	}, "jpeg")
}

// pixPool recycles RGBA backing arrays for short-lived frames: the
// rasterizer's framebuffers and pre-scaled replaced-element images. Get
// returns an image whose every pixel the caller is expected to overwrite
// (pooled memory is NOT zeroed); Put recycles it. Images built on a
// caller-provided or non-recyclable buffer are simply dropped.
var pixPool = sync.Pool{
	New: func() any { return []uint8(nil) },
}

// GetRGBA returns a w×h RGBA whose backing array may be recycled from an
// earlier PutRGBA. The pixel contents are undefined: the caller must
// paint every pixel (the rasterizer's full-frame background fill, the
// scalers' every-pixel writes).
func GetRGBA(w, h int) *image.RGBA {
	if w < 1 {
		w = 1
	}
	if h < 1 {
		h = 1
	}
	need := 4 * w * h
	buf := pixPool.Get().([]uint8)
	if cap(buf) < need {
		buf = make([]uint8, need)
	}
	return &image.RGBA{
		Pix:    buf[:need:need],
		Stride: 4 * w,
		Rect:   image.Rect(0, 0, w, h),
	}
}

// PutRGBA recycles an image obtained from GetRGBA (nil-safe). The caller
// must not touch img afterwards. Sub-image views must not be returned —
// only the original full allocation.
func PutRGBA(img *image.RGBA) {
	if img == nil || img.Rect.Min != (image.Point{}) {
		return
	}
	pixPool.Put(img.Pix[:0:cap(img.Pix)]) //nolint:staticcheck // slice header reuse is the point
}

// maxDecodePixels caps the pixel count Decode accepts: 4096×4096, 64 MiB
// as RGBA. A header may declare any size, and the standard decoders
// allocate the whole image from it before reading a pixel, so a 65-byte
// PNG claiming 60000×60000 would ask for ~14 GB. That is a fatal
// out-of-memory, which no recover catches, not an error.
const maxDecodePixels = 1 << 24

// Decode decodes PNG, JPEG, or GIF bytes. An image whose header declares
// more than maxDecodePixels pixels is refused before any pixel memory is
// allocated, and one with no pixels is refused too: it has nothing to
// paint, and a 0×0 GIF is 34 bytes.
func Decode(data []byte) (image.Image, error) {
	cfg, _, err := image.DecodeConfig(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("imaging: decoding image: %w", err)
	}
	if int64(cfg.Width)*int64(cfg.Height) > maxDecodePixels {
		return nil, fmt.Errorf("imaging: image is %d×%d, over the %d-pixel cap", cfg.Width, cfg.Height, maxDecodePixels)
	}
	img, _, err := image.Decode(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("imaging: decoding image: %w", err)
	}
	if img.Bounds().Empty() {
		return nil, fmt.Errorf("imaging: image is %v, with no pixels", img.Bounds().Size())
	}
	return img, nil
}

// Scale resizes img to w x h using box sampling for minification and
// bilinear interpolation for magnification. Dimensions are clamped to 1.
func Scale(img image.Image, w, h int) *image.RGBA {
	out := image.NewRGBA(image.Rect(0, 0, max(w, 1), max(h, 1)))
	ScaleInto(out, img)
	return out
}

// ScaleInto resizes img to fill dst, box sampling for minification and
// bilinear for magnification. It writes every destination pixel, so dst
// may come from GetRGBA without clearing: from an empty source, every
// pixel is transparent black.
func ScaleInto(dst *image.RGBA, img image.Image) {
	w, h := dst.Rect.Dx(), dst.Rect.Dy()
	src := img.Bounds()
	sw, sh := src.Dx(), src.Dy()
	if sw == 0 || sh == 0 {
		for y := dst.Rect.Min.Y; y < dst.Rect.Max.Y; y++ {
			off := dst.PixOffset(dst.Rect.Min.X, y)
			clear(dst.Pix[off : off+4*w])
		}
		return
	}
	if w >= sw && h >= sh {
		bilinearScale(dst, img, w, h)
		return
	}
	if rgba, ok := img.(*image.RGBA); ok {
		rows := *dst // dst with its rows numbered from 0, as the filter's
		rows.Rect = dst.Rect.Sub(image.Pt(0, dst.Rect.Min.Y))
		NewBoxFilter(w, h, sw, sh).Fold(&rows, rgba)
		return
	}
	boxScale(dst, img, w, h)
}

// ScaleToWidth resizes preserving aspect ratio.
func ScaleToWidth(img image.Image, w int) *image.RGBA {
	b := img.Bounds()
	if b.Dx() == 0 {
		return image.NewRGBA(image.Rect(0, 0, 1, 1))
	}
	h := int(float64(w) * float64(b.Dy()) / float64(b.Dx()))
	return Scale(img, w, h)
}

// FactorSize is the pixel size ScaleFactor gives a w×h image.
func FactorSize(w, h int, factor float64) (int, int) {
	return max(int(float64(w)*factor), 1), max(int(float64(h)*factor), 1)
}

// ScaleFactor resizes by a multiplicative factor.
func ScaleFactor(img image.Image, factor float64) *image.RGBA {
	b := img.Bounds()
	w, h := FactorSize(b.Dx(), b.Dy(), factor)
	return Scale(img, w, h)
}

// BoxFilter is the box filter over rows of pixels or of spans. It folds
// whole destination rows at a time, each run from its own starting row: a
// whole *image.RGBA (ScaleInto, through Fold), or the short bands a
// render's paint workers fold as spans as they paint them (AddSpans and
// FlushSpans), in any order. Its arithmetic and partition are boxScale's:
// destination pixel (dx, dy) averages source columns [dx*sw/w,
// (dx+1)*sw/w) of source rows SourceRows(dy, dy+1), each span widened to
// one where it is empty. A filter keeps the sums of the destination row it
// is folding, so it belongs to one goroutine.
type BoxFilter struct {
	w, h, sw, sh int
	// x0[dx], x1[dx] is the span of source columns of destination column dx.
	x0, x1 []int32
	// sums holds the channel sums, per source column, of the source rows
	// Fold has gathered for the destination row being folded.
	sums []uint32
	spanFold
	// A box is minRows or minRows+1 rows of minCols or minCols+1 columns;
	// div[rows-minRows][cols-minCols] divides its channel sums.
	minRows, minCols int
	div              [2][2]divisor
}

// NewBoxFilter returns a filter from a source sw×sh pixels large to a w×h
// destination.
func NewBoxFilter(w, h, sw, sh int) *BoxFilter {
	spans := make([]int32, 2*w)
	f := &BoxFilter{w: w, h: h, sw: sw, sh: sh, x0: spans[:w], x1: spans[w:],
		minRows: max(sh/h, 1), minCols: max(sw/w, 1)}
	// One allocation for the span fold's partial sums and its marks.
	buf := make([]uint64, 4*w+(w+64)/64)
	f.part, f.marks, f.diff = buf[:4*w], buf[4*w:], make([]uint32, 4*w)
	for dx := range f.x0 {
		f.x0[dx] = int32(dx * sw / w)
		f.x1[dx] = int32(max((dx+1)*sw/w, dx*sw/w+1))
	}
	// A sum of 8-bit samples times 0x101 is the sum of the 16-bit values
	// color.RGBA reports, so dividing it by 0x100 times the box's pixel
	// count gives boxScale's 8-bit mean.
	for r := range f.div {
		for c := range f.div[r] {
			f.div[r][c] = newDivisor(uint64((f.minRows+r)*(f.minCols+c)) << 8)
		}
	}
	return f
}

// SourceRows is the span [sy0, sy1) of source rows that destination rows
// [dy0, dy1) average. When the filter magnifies vertically, consecutive
// runs of destination rows may share a source row.
func (f *BoxFilter) SourceRows(dy0, dy1 int) (sy0, sy1 int) {
	return dy0 * f.sh / f.h, max(dy1*f.sh/f.h, (dy1-1)*f.sh/f.h+1)
}

// Fold writes the destination rows dst's bounds span, w pixels from its
// left edge, from src: an image sw pixels wide whose rows, top to bottom,
// are the source rows SourceRows gives for them.
func (f *BoxFilter) Fold(dst, src *image.RGBA) {
	if f.sums == nil {
		f.sums = make([]uint32, 4*f.sw)
	}
	d := dst.Rect
	base, _ := f.SourceRows(d.Min.Y, d.Max.Y)
	for dy := d.Min.Y; dy < d.Max.Y; dy++ {
		sy0, sy1 := f.SourceRows(dy, dy+1)
		for sy := sy0; sy < sy1; sy++ {
			off := src.PixOffset(src.Rect.Min.X, src.Rect.Min.Y+sy-base)
			f.gather(src.Pix[off:off+4*f.sw], sy == sy0)
		}
		off := dst.PixOffset(d.Min.X, dy)
		f.flush(dst.Pix[off:off+4*f.w], sy1-sy0)
	}
}

// gather adds one source row to the column sums; the first row of a
// destination row replaces them.
func (f *BoxFilter) gather(row []uint8, first bool) {
	sums := f.sums[:len(row)]
	if first {
		for i, v := range row {
			sums[i] = uint32(v)
		}
		return
	}
	for i, v := range row {
		sums[i] += uint32(v)
	}
}

// flush writes into out the destination row whose source rows, rows of
// them, the column sums hold.
func (f *BoxFilter) flush(out []uint8, rows int) {
	div := &f.div[rows-f.minRows]
	for dx, x0 := range f.x0 {
		x0, x1 := int(x0), int(f.x1[dx])
		var r, g, b, a uint64
		for p := f.sums[4*x0 : 4*x1]; len(p) >= 4; p = p[4:] {
			r += uint64(p[0])
			g += uint64(p[1])
			b += uint64(p[2])
			a += uint64(p[3])
		}
		d := div[x1-x0-f.minCols]
		px := out[4*dx : 4*dx+4]
		px[0] = uint8(d.div(r * 0x101))
		px[1] = uint8(d.div(g * 0x101))
		px[2] = uint8(d.div(b * 0x101))
		px[3] = uint8(d.div(a * 0x101))
	}
}

// A divisor divides by d ≥ 2 with one multiplication: with 2^s < d ≤
// 2^(s+1) and m = ⌈2^(64+s)/d⌉, which fits 64 bits, ⌊x·m/2^(64+s)⌋ is
// ⌊x/d⌋ for every x < 2^63, since the error x·(m − 2^(64+s)/d)/2^(64+s)
// is below x/2^(64+s) ≤ x/2^63 · 1/d < 1/d.
type divisor struct {
	m uint64
	s uint
}

func newDivisor(d uint64) divisor {
	s := uint(bits.Len64(d-1)) - 1
	m, rem := bits.Div64(1<<s, 0, d)
	if rem != 0 {
		m++
	}
	return divisor{m, s}
}

// div is ⌊x/d⌋ for x < 2^63.
func (d divisor) div(x uint64) uint64 {
	hi, _ := bits.Mul64(x, d.m)
	return hi >> d.s
}

// boxScale is the box filter for sources that are not *image.RGBA
// (decoded origin images), and the reference BoxFilter is tested against:
// it averages all source pixels covered by each destination pixel.
func boxScale(out *image.RGBA, img image.Image, w, h int) {
	src := img.Bounds()
	sw, sh := src.Dx(), src.Dy()
	for dy := 0; dy < h; dy++ {
		sy0 := src.Min.Y + dy*sh/h
		sy1 := src.Min.Y + (dy+1)*sh/h
		if sy1 <= sy0 {
			sy1 = sy0 + 1
		}
		for dx := 0; dx < w; dx++ {
			sx0 := src.Min.X + dx*sw/w
			sx1 := src.Min.X + (dx+1)*sw/w
			if sx1 <= sx0 {
				sx1 = sx0 + 1
			}
			var rs, gs, bs, as, n uint64
			for sy := sy0; sy < sy1; sy++ {
				for sx := sx0; sx < sx1; sx++ {
					r, g, b, a := img.At(sx, sy).RGBA()
					rs += uint64(r)
					gs += uint64(g)
					bs += uint64(b)
					as += uint64(a)
					n++
				}
			}
			out.SetRGBA(dx, dy, color.RGBA{
				R: uint8(rs / n >> 8),
				G: uint8(gs / n >> 8),
				B: uint8(bs / n >> 8),
				A: uint8(as / n >> 8),
			})
		}
	}
}

func bilinearScale(out *image.RGBA, img image.Image, w, h int) {
	src := img.Bounds()
	sw, sh := src.Dx(), src.Dy()
	for dy := 0; dy < h; dy++ {
		fy := (float64(dy) + 0.5) * float64(sh) / float64(h)
		sy := int(fy - 0.5)
		ty := fy - 0.5 - float64(sy)
		if sy < 0 {
			sy, ty = 0, 0
		}
		if sy >= sh-1 {
			sy, ty = sh-2, 1
			if sy < 0 {
				sy, ty = 0, 0
			}
		}
		for dx := 0; dx < w; dx++ {
			fx := (float64(dx) + 0.5) * float64(sw) / float64(w)
			sx := int(fx - 0.5)
			tx := fx - 0.5 - float64(sx)
			if sx < 0 {
				sx, tx = 0, 0
			}
			if sx >= sw-1 {
				sx, tx = sw-2, 1
				if sx < 0 {
					sx, tx = 0, 0
				}
			}
			out.SetRGBA(dx, dy, lerpPixels(img, src, sx, sy, tx, ty))
		}
	}
}

func lerpPixels(img image.Image, src image.Rectangle, sx, sy int, tx, ty float64) color.RGBA {
	at := func(x, y int) (float64, float64, float64, float64) {
		if x > src.Dx()-1 {
			x = src.Dx() - 1
		}
		if y > src.Dy()-1 {
			y = src.Dy() - 1
		}
		r, g, b, a := img.At(src.Min.X+x, src.Min.Y+y).RGBA()
		return float64(r), float64(g), float64(b), float64(a)
	}
	r00, g00, b00, a00 := at(sx, sy)
	r10, g10, b10, a10 := at(sx+1, sy)
	r01, g01, b01, a01 := at(sx, sy+1)
	r11, g11, b11, a11 := at(sx+1, sy+1)
	lerp2 := func(v00, v10, v01, v11 float64) uint8 {
		top := v00*(1-tx) + v10*tx
		bot := v01*(1-tx) + v11*tx
		return uint8(uint32(top*(1-ty)+bot*ty) >> 8)
	}
	return color.RGBA{
		R: lerp2(r00, r10, r01, r11),
		G: lerp2(g00, g10, g01, g11),
		B: lerp2(b00, b10, b01, b11),
		A: lerp2(a00, a10, a01, a11),
	}
}
