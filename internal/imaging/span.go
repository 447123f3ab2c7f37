package imaging

import (
	"encoding/binary"
	"image/color"
	"math/bits"
)

// A Span is a run of one colour in a row of pixels: the columns from where
// the span before it ends, or from 0 for the first, up to End. A row of
// spans lists them left to right, the last ending at the row's width.
type Span struct {
	End int32
	C   color.RGBA
}

// ExpandSpans writes the pixels of row into dst, 4 bytes a pixel from
// column 0, up to the end of the last span.
func ExpandSpans(dst []uint8, row []Span) {
	x := 0
	for _, s := range row {
		fillPixels(dst[4*x:4*int(s.End)], pixel(s.C))
		x = int(s.End)
	}
}

// pixel is c as the little-endian word of its 4 bytes in an *image.RGBA.
func pixel(c color.RGBA) uint32 {
	return uint32(c.R) | uint32(c.G)<<8 | uint32(c.B)<<16 | uint32(c.A)<<24
}

// fillPixels writes the pixel v, little-endian, over all of dst.
func fillPixels(dst []uint8, v uint32) {
	for ; len(dst) >= 16; dst = dst[16:] {
		binary.LittleEndian.PutUint32(dst, v)
		binary.LittleEndian.PutUint32(dst[4:], v)
		binary.LittleEndian.PutUint32(dst[8:], v)
		binary.LittleEndian.PutUint32(dst[12:], v)
	}
	for ; len(dst) >= 4; dst = dst[4:] {
		binary.LittleEndian.PutUint32(dst, v)
	}
}

// spanFold is what a BoxFilter keeps of the source rows AddSpans has added
// since the last FlushSpans. A span covers some destination columns whole
// and at most two, its first and its last, in part. Its colour goes once
// into a difference array over the whole ones, and colour × covered length
// into the sums of the other two; marks has a bit set at every column where
// either changes, so a column left unmarked has the box sum of the one
// before it, scaled to its own width. A span marks its first two columns
// and its last; the span after it starts in its last column or the next,
// so it marks the column after the last.
type spanFold struct {
	// diff holds, 4 channels a destination column, the difference array of
	// the colours of the spans that cover a column whole: the running sum
	// of diff up to column dx is the sum, over the rows added, of the
	// colour of the span that covers column dx whole, if one does.
	diff []uint32
	// part holds, 4 channels a destination column, the sums of colour ×
	// covered length of the spans that cover it in part.
	part []uint64
	// marks holds one bit a destination column, and one past the last.
	marks []uint64
}

// AddSpans adds one source row, as spans covering its sw columns, to the
// destination row being folded: the next FlushSpans writes the average of
// the rows added since the last, as Fold would from the same pixels.
func (f *BoxFilter) AddSpans(row []Span) {
	a := 0
	for _, s := range row {
		b := int(s.End)
		// d is the first column whose source columns reach a, or the one
		// before it, which the span then covers for 0 columns; e is the
		// last column whose source columns start before b.
		d, e := a*f.w/f.sw, (b*f.w-1)/f.sw
		c := [4]uint32{uint32(s.C.R), uint32(s.C.G), uint32(s.C.B), uint32(s.C.A)}
		f.addPart(d, c, min(b, int(f.x1[d]))-max(a, int(f.x0[d])))
		if e > d {
			f.addPart(e, c, b-max(a, int(f.x0[e])))
		}
		if e > d+1 {
			lo, hi := f.diff[4*(d+1):4*(d+1)+4], f.diff[4*e:4*e+4]
			for ch, v := range c {
				lo[ch] += v
				hi[ch] -= v // wraps; the running sum never goes below 0
			}
		}
		f.mark(d)
		f.mark(d + 1)
		f.mark(e)
		a = b
	}
}

func (f *BoxFilter) addPart(dx int, c [4]uint32, n int) {
	p := f.part[4*dx : 4*dx+4]
	for ch, v := range c {
		p[ch] += uint64(v) * uint64(n)
	}
}

func (f *BoxFilter) mark(dx int) { f.marks[dx>>6] |= 1 << (dx & 63) }

// FlushSpans writes into out, w pixels, the destination row whose source
// rows, rows of them, AddSpans added since the last flush, and clears what
// they left for the next. It visits only marked columns: an unmarked one
// repeats the pixel before it. That is exact, because its box sum is
// S·n for the per-column sum S of the column before it and its own width
// n, and ⌊S·n·0x101 / (rows·n·0x100)⌋ does not depend on n.
func (f *BoxFilter) FlushSpans(out []uint8, rows int) {
	div := &f.div[rows-f.minRows]
	var acc [4]uint32
	var px uint32
	next := 0 // the first column not yet written
	for wi, word := range f.marks {
		f.marks[wi] = 0
		for ; word != 0; word &= word - 1 {
			dx := wi<<6 + bits.TrailingZeros64(word)
			if dx >= f.w {
				break
			}
			fillPixels(out[4*next:4*dx], px)
			n := int(f.x1[dx] - f.x0[dx])
			d := div[n-f.minCols]
			diff, part := f.diff[4*dx:4*dx+4], f.part[4*dx:4*dx+4]
			var v [4]uint8
			for ch := range v {
				acc[ch] += diff[ch]
				v[ch] = uint8(d.div((uint64(acc[ch])*uint64(n) + part[ch]) * 0x101))
				diff[ch], part[ch] = 0, 0
			}
			px = binary.LittleEndian.Uint32(v[:])
			binary.LittleEndian.PutUint32(out[4*dx:], px)
			next = dx + 1
		}
	}
	fillPixels(out[4*next:4*f.w], px)
}
