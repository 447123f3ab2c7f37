// Package imaging is the image post-processor of the m.Site pipeline
// (§3.3 "Image fidelity"): scaling and fidelity-ladder encoding that
// turns a ~600 KB full-page PNG snapshot into the 25–50 KB JPEG a mobile
// client actually downloads. A flat frame — a render of text and boxes
// with at most 256 colours — needs no ladder: EncodeExact writes it as a
// palette PNG that is both exact and smaller than the JPEG.
package imaging

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"image"
	"image/color"
	_ "image/gif" // registered for Decode: origin sites serve GIFs
	"image/jpeg"
	"image/png"
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

// encBufPool recycles the scratch buffers the encoders grow into. A
// full-page PNG repeatedly doubles its buffer to hundreds of kilobytes;
// reusing that capacity across snapshot renders removes the dominant
// encode-side allocation from the cold-adaptation tail (BENCH_PR2's
// serialized-tail ceiling). The encoded bytes are copied out before the
// buffer returns to the pool, so callers own their slices as before.
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

// EncodeExact encodes img losslessly as a palette PNG when it has at most
// 256 colours, each of which survives PNG's non-premultiplied palette; ok
// is false, with no data and no error, for any other image, which the
// caller encodes lossily instead. One pass over the pixels fills the
// colour table and stops at the 257th colour, and the encoder reads the
// palette indices through that table, so nothing the size of the image is
// allocated beside the encoder's own state.
func EncodeExact(img *image.RGBA) (data []byte, ok bool, err error) {
	b := img.Bounds()
	if b.Empty() {
		return nil, false, nil
	}
	v := &paletteView{RGBA: img}
	var last uint32
	for y := b.Min.Y; y < b.Max.Y; y++ {
		off := img.PixOffset(b.Min.X, y)
		for row := img.Pix[off : off+4*b.Dx()]; len(row) >= 4; row = row[4:] {
			key := binary.LittleEndian.Uint32(row)
			if key == last && len(v.pal) > 0 {
				continue // runs of one colour are most of a page
			}
			last = key
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

// tableBits sizes paletteView's colour table: 512 slots keep its load at
// most one half with 256 colours.
const tableBits = 9

// paletteView is an *image.RGBA seen as an image.PalettedImage, which
// png.Encode writes as a palette PNG: ColorIndexAt looks each pixel up in
// an open-addressed table of the image's colours.
type paletteView struct {
	*image.RGBA
	pal  color.Palette
	keys [1 << tableBits]uint32
	// index holds a slot's palette index plus one; 0 marks an empty slot.
	index [1 << tableBits]uint16
}

func (v *paletteView) ColorModel() color.Model { return v.pal }

func (v *paletteView) ColorIndexAt(x, y int) uint8 {
	s := v.slot(binary.LittleEndian.Uint32(v.Pix[v.PixOffset(x, y):]))
	return uint8(v.index[s] - 1)
}

// slot is the slot holding key, or the empty slot where it belongs.
func (v *paletteView) slot(key uint32) int {
	const mask = 1<<tableBits - 1
	s := int(key * 0x9e3779b1 >> (32 - tableBits))
	for v.index[s] != 0 && v.keys[s] != key {
		s = (s + 1) & mask
	}
	return s
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

// Decode decodes PNG, JPEG, or GIF bytes.
func Decode(data []byte) (image.Image, error) {
	img, _, err := image.Decode(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("imaging: decoding image: %w", err)
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
// may come from GetRGBA without clearing. An empty source leaves dst
// zero-filled only if the caller cleared it; sources are non-empty on
// every pipeline path.
func ScaleInto(dst *image.RGBA, img image.Image) {
	w, h := dst.Rect.Dx(), dst.Rect.Dy()
	src := img.Bounds()
	sw, sh := src.Dx(), src.Dy()
	if sw == 0 || sh == 0 {
		return
	}
	if w >= sw && h >= sh {
		bilinearScale(dst, img, w, h)
		return
	}
	if rgba, ok := img.(*image.RGBA); ok {
		NewBoxFilter(dst, sw, sh).Add(rgba)
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

// BoxFilter is the box filter over *image.RGBA — the only type the
// painter produces — fed a source of known size a run of rows at a time:
// a whole image at once (ScaleInto) or the bands of a page being painted,
// none of which need outlive their Add. It reads and writes pixel bytes
// in place, so its few allocations do not grow with the pixel count. Its
// arithmetic and partition are boxScale's: destination pixel (dx, dy)
// averages source columns [dx*sw/w, (dx+1)*sw/w) of rows [dy*sh/h,
// (dy+1)*sh/h), each span widened to one where it is empty.
type BoxFilter struct {
	dst    *image.RGBA
	sw, sh int
	// x0[dx], x1[dx] is the span of source columns of destination column dx.
	x0, x1 []int
	// sums holds the 8-bit channel sums of destination row dy, gathered
	// from rows source rows so far; next is the source row Add continues at.
	sums           []uint64
	rows, dy, next int
}

// NewBoxFilter returns a filter that fills dst from a source sw×sh pixels
// large. Every pixel of dst is written once all sh rows have been added.
func NewBoxFilter(dst *image.RGBA, sw, sh int) *BoxFilter {
	w := dst.Rect.Dx()
	f := &BoxFilter{dst: dst, sw: sw, sh: sh, x0: make([]int, w), x1: make([]int, w), sums: make([]uint64, 4*w)}
	for dx := range f.x0 {
		f.x0[dx] = dx * sw / w
		f.x1[dx] = max((dx+1)*sw/w, f.x0[dx]+1)
	}
	return f
}

// Add folds the rows of src, which continue the source where the previous
// Add stopped, into the destination. src's width must be the source's.
func (f *BoxFilter) Add(src *image.RGBA) {
	b, h := src.Bounds(), f.dst.Rect.Dy()
	for y := b.Min.Y; y < b.Max.Y; y++ {
		off := src.PixOffset(b.Min.X, y)
		row := src.Pix[off : off+4*f.sw]
		// When the filter magnifies vertically several destination rows
		// share this source row; otherwise the loop runs once.
		for f.dy < h && f.next >= f.dy*f.sh/h {
			f.gather(row)
			if f.next+1 < (f.dy+1)*f.sh/h {
				break
			}
			f.flush()
		}
		f.next++
	}
}

// gather adds one source row to the sums of the current destination row.
func (f *BoxFilter) gather(row []uint8) {
	f.rows++
	for dx, x0 := range f.x0 {
		s := f.sums[4*dx : 4*dx+4]
		for p := row[4*x0 : 4*f.x1[dx]]; len(p) >= 4; p = p[4:] {
			s[0] += uint64(p[0])
			s[1] += uint64(p[1])
			s[2] += uint64(p[2])
			s[3] += uint64(p[3])
		}
	}
}

// flush writes the current destination row and starts the next. A sum of
// 8-bit samples times 0x101 is the sum of the 16-bit values color.RGBA
// reports, so the quotient is boxScale's.
func (f *BoxFilter) flush() {
	off := f.dst.PixOffset(f.dst.Rect.Min.X, f.dst.Rect.Min.Y+f.dy)
	out := f.dst.Pix[off : off+len(f.sums)]
	for dx, x0 := range f.x0 {
		n := uint64(f.rows * (f.x1[dx] - x0))
		for c := 4 * dx; c < 4*dx+4; c++ {
			out[c] = uint8(f.sums[c] * 0x101 / n >> 8)
			f.sums[c] = 0
		}
	}
	f.rows = 0
	f.dy++
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
