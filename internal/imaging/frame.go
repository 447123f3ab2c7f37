package imaging

import (
	"bufio"
	"bytes"
	"compress/zlib"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"image"
	"image/color"
	"io"
)

// Frame is an image collected a row at a time, top to bottom. While its
// rows hold at most 256 colours, each of which survives PNG's
// non-premultiplied palette, it numbers them in order of first
// appearance. The row that brings the 257th colour, or one the palette
// cannot give back exactly, turns it into an RGBA image, the rows before
// it copied in.
//
// A frame is chosen exact or not when it is made. One that is not exact
// keeps its rows as palette indices, one byte a pixel, and encodes them
// at a fidelity. An exact frame is written as a palette PNG, byte for
// byte what png.Encode writes for the frame as an *image.Paletted, and
// keeps no image: it holds its index rows until the 17th colour, then
// deflates each row as it is added, as image/png would; a frame that
// ends with at most 16 colours packs its held rows at 1, 2 or 4 bits
// through the same writer. Promoted, an exact frame inflates the rows it
// deflated into the RGBA image and is encoded at its fidelity.
type Frame struct {
	w, h  int
	exact bool
	pal   []color.RGBA
	// idx holds palette indices, one byte a pixel, a row after another:
	// all h rows of a frame that is not exact, an exact frame's rows
	// until its stream starts.
	idx  []uint8
	png  *pngStream  // an exact frame's deflated rows, from its 17th colour
	rgba *image.RGBA // non-nil once the frame is RGBA
	y    int         // rows added so far
	err  error       // the first error writing or reading png
	// keys and index are an open-addressed table of the palette; index
	// holds a slot's palette index plus one, 0 marking an empty slot.
	keys  [1 << tableBits]uint32
	index [1 << tableBits]uint16
}

// tableBits sizes a Frame's colour table: 512 slots keep its load at most
// one half with 256 colours.
const tableBits = 9

// heldRows is how many rows an exact frame holds before it makes room for
// all of them: a page whose first rows bring no 17th colour may have no
// more than 16 in all, and is packed from the rows at Encode.
const heldRows = 64

// NewFrame returns an empty w×h frame, exact or not.
func NewFrame(w, h int, exact bool) *Frame {
	f := &Frame{w: w, h: h, exact: exact, pal: make([]color.RGBA, 0, 256)}
	if !exact {
		f.idx = make([]uint8, w*h)
	}
	return f
}

// Add appends the rows of band, which is as wide as the frame.
func (f *Frame) Add(band *image.RGBA) {
	b := band.Rect
	for y := b.Min.Y; y < b.Max.Y; y++ {
		off := band.PixOffset(b.Min.X, y)
		row := band.Pix[off : off+4*b.Dx()]
		if f.rgba == nil && !f.indexRow(f.next(), row) {
			f.promote()
		}
		switch {
		case f.rgba != nil:
			copy(f.rgba.Pix[f.y*f.rgba.Stride:], row)
		case f.png != nil:
			f.write()
		case f.exact && len(f.pal) > 16:
			f.stream(8, f.y+1)
		}
		f.y++
	}
}

// next is where the palette indices of row f.y go.
func (f *Frame) next() []uint8 {
	if f.png != nil {
		return f.png.row[1:]
	}
	if end := (f.y + 1) * f.w; end > len(f.idx) {
		rows := f.h
		if f.idx == nil {
			rows = min(f.h, heldRows)
		}
		f.idx = append(make([]uint8, 0, rows*f.w), f.idx...)[:rows*f.w]
	}
	return f.idx[f.y*f.w:][:f.w]
}

// indexRow writes the palette indices of row into out, adding its new
// colours to the palette, and reports false at the first colour that does
// not fit.
func (f *Frame) indexRow(out, row []uint8) bool {
	const mask = 1<<tableBits - 1
	var last uint32
	var i uint8
	for x := range out {
		p := row[4*x : 4*x+4]
		// Runs of one colour are most of a page.
		if key := binary.LittleEndian.Uint32(p); x == 0 || key != last {
			s := int(key * 0x9e3779b1 >> (32 - tableBits))
			for f.index[s] != 0 && f.keys[s] != key {
				s = (s + 1) & mask
			}
			if f.index[s] == 0 {
				c := color.RGBA{R: p[0], G: p[1], B: p[2], A: p[3]}
				if len(f.pal) == 256 || c.A != 0xff && color.RGBAModel.Convert(nrgba(c)) != c {
					return false
				}
				f.keys[s], f.index[s] = key, uint16(len(f.pal)+1)
				f.pal = append(f.pal, c)
			}
			last, i = key, uint8(f.index[s]-1)
		}
		out[x] = i
	}
	return true
}

// nrgba is c as color.NRGBAModel converts it, and as PNG's palette holds
// it: its colour not premultiplied by its alpha.
func nrgba(c color.RGBA) color.NRGBA {
	switch c.A {
	case 0xff:
		return color.NRGBA(c)
	case 0:
		return color.NRGBA{}
	}
	a := uint32(c.A) * 0x101
	div := func(v uint8) uint8 { return uint8(uint32(v) * 0x101 * 0xffff / a >> 8) }
	return color.NRGBA{R: div(c.R), G: div(c.G), B: div(c.B), A: c.A}
}

// stream starts an exact frame's PNG stream at bits an index and deflates
// into it the first rows of those it holds.
func (f *Frame) stream(bits, rows int) {
	f.png = newPNGStream(f.w, bits)
	for y := range rows {
		f.png.pack(f.idx[y*f.w:][:f.w])
		f.write()
	}
	f.idx = nil
}

// write deflates the row in f.png.row.
func (f *Frame) write() {
	if _, err := f.png.zw.Write(f.png.row); err != nil && f.err == nil {
		f.err = err
	}
}

// promote turns the frame into RGBA, copying in the rows added so far:
// through the palette from the indices it holds, or inflated from its
// stream.
func (f *Frame) promote() {
	f.rgba = image.NewRGBA(image.Rect(0, 0, f.w, f.h))
	if f.png != nil {
		if err := f.png.inflate(f.rgba, f.pal, f.y); err != nil && f.err == nil {
			f.err = err
		}
		f.png = nil
		return
	}
	for i, ci := range f.idx[:f.y*f.w] {
		binary.LittleEndian.PutUint32(f.rgba.Pix[4*i:], pixel(f.pal[ci]))
	}
	f.idx = nil
}

// Image is the frame as an *image.RGBA once it has more colours than a
// palette holds, and otherwise, when it is not exact, as an
// *image.Paletted. An exact frame keeps no image of its palette indices:
// Image is then nil.
func (f *Frame) Image() image.Image {
	switch {
	case f.rgba != nil:
		return f.rgba
	case f.exact:
		return nil
	}
	return f.paletted()
}

// paletted is a frame that is not exact as an *image.Paletted.
func (f *Frame) paletted() *image.Paletted {
	pal := make(color.Palette, len(f.pal))
	for i, c := range f.pal {
		pal[i] = c
	}
	return &image.Paletted{Pix: f.idx, Stride: f.w, Rect: image.Rect(0, 0, f.w, f.h), Palette: pal}
}

// Encode encodes the frame. An exact frame that kept its palette is
// written as a palette PNG, which decodes to exactly its pixels; any other
// frame is encoded at fid, byte for byte as Encode encodes it as an RGBA
// image. mime is the content type of data.
func (f *Frame) Encode(fid Fidelity) (data []byte, mime string, err error) {
	if f.rgba == nil && len(f.pal) == 0 {
		f.promote() // an empty frame has no palette to write or read from
	}
	switch {
	case f.err != nil:
		return nil, "", fmt.Errorf("imaging: encoding a frame: %w", f.err)
	case f.rgba != nil:
		data, err = Encode(f.rgba, fid)
	case f.exact:
		data, err = f.encodePNG()
		return data, "image/png", err
	default:
		data, err = Encode(truecolour{f.paletted()}, fid)
	}
	return data, fid.MIME(), err
}

// truecolour is a palette frame seen as an RGBA image. image/png writes it
// as a truecolour PNG and image/jpeg reads it through At, whose 8-bit
// channels are the bytes both read from an *image.RGBA of the same pixels.
type truecolour struct{ *image.Paletted }

func (truecolour) ColorModel() color.Model { return color.RGBAModel }

// pngSignature starts every PNG file.
const pngSignature = "\x89PNG\r\n\x1a\n"

// encodePNG ends an exact frame's stream, packing the rows it holds if it
// never started, and writes the file around it, as png.Encode writes an
// *image.Paletted: IHDR, PLTE, tRNS up to the last translucent entry,
// the stream's IDAT chunks and IEND, in one allocation of the file's size.
func (f *Frame) encodePNG() ([]byte, error) {
	if f.png == nil {
		bits := 4
		switch {
		case len(f.pal) <= 2:
			bits = 1
		case len(f.pal) <= 4:
			bits = 2
		}
		f.stream(bits, f.y)
	}
	if f.png.zw != nil {
		// Rows never added are index 0, as in an *image.Paletted.
		clear(f.png.row)
		for ; f.y < f.h; f.y++ {
			f.write()
		}
		if err := f.png.close(); err != nil && f.err == nil {
			f.err = err
		}
	}
	if f.err != nil {
		return nil, fmt.Errorf("imaging: encoding a frame: %w", f.err)
	}
	var ihdr [13]uint8
	binary.BigEndian.PutUint32(ihdr[0:], uint32(f.w))
	binary.BigEndian.PutUint32(ihdr[4:], uint32(f.h))
	ihdr[8], ihdr[9] = uint8(f.png.bits), 3 // bit depth, colour type palette
	// entries holds PLTE's 3 bytes an entry, then from 3×256 tRNS's alphas.
	var entries [4 * 256]uint8
	trns := 0
	for i, c := range f.pal {
		n := nrgba(c)
		entries[3*i], entries[3*i+1], entries[3*i+2], entries[3*256+i] = n.R, n.G, n.B, n.A
		if n.A != 0xff {
			trns = i + 1
		}
	}
	size := len(pngSignature) + 12 + len(ihdr) + 12 + 3*len(f.pal) + 12
	if trns > 0 {
		size += 12 + trns
	}
	for _, c := range f.png.idat {
		size += 12 + len(c)
	}
	out := append(make([]byte, 0, size), pngSignature...)
	out = appendChunk(out, "IHDR", ihdr[:])
	out = appendChunk(out, "PLTE", entries[:3*len(f.pal)])
	if trns > 0 {
		out = appendChunk(out, "tRNS", entries[3*256:3*256+trns])
	}
	for _, c := range f.png.idat {
		out = appendChunk(out, "IDAT", c)
	}
	return appendChunk(out, "IEND", nil), nil
}

// appendChunk appends a PNG chunk: its length, name, data and CRC.
func appendChunk(b []byte, name string, data []byte) []byte {
	b = binary.BigEndian.AppendUint32(b, uint32(len(data)))
	start := len(b)
	b = append(append(b, name...), data...)
	return binary.BigEndian.AppendUint32(b, crc32.ChecksumIEEE(b[start:]))
}

// pngStream is the image data of a palette PNG, deflated as its rows
// come. Each row, a filter byte of 0 and its packed indices, goes to one
// zlib.Writer at image/png's level, and through a bufio.Writer of
// image/png's 32 KB into idat, each of whose Writes is one IDAT chunk.
// flate's output depends only on the bytes it is given, so the chunks are
// those png.Encode writes for the same rows.
type pngStream struct {
	zw   *zlib.Writer // nil once closed
	bw   *bufio.Writer
	idat idatChunks
	row  []uint8 // a filter byte of 0 and a row's indices, bits an index
	bits int
}

// idatChunks records the data of each IDAT chunk a stream writes.
type idatChunks [][]byte

func (c *idatChunks) Write(b []byte) (int, error) {
	*c = append(*c, bytes.Clone(b))
	return len(b), nil
}

func newPNGStream(w, bits int) *pngStream {
	s := &pngStream{row: make([]uint8, 1+(bits*w+7)/8), bits: bits}
	s.bw = bufio.NewWriterSize(&s.idat, 1<<15)
	s.zw, _ = zlib.NewWriterLevel(s.bw, zlib.DefaultCompression) // a valid level: no error
	return s
}

// pack writes the indices idx into s.row at s.bits an index, the first in
// the highest bits of a byte and the last byte padded with zero bits.
func (s *pngStream) pack(idx []uint8) {
	out := s.row[1:]
	if s.bits == 8 {
		copy(out, idx)
		return
	}
	clear(out)
	for x, i := range idx {
		out[x*s.bits/8] |= i << (8 - s.bits - x*s.bits%8)
	}
}

// close ends the stream and flushes its last chunk.
func (s *pngStream) close() error {
	err := s.zw.Close()
	if err == nil {
		err = s.bw.Flush()
	}
	s.zw, s.bw = nil, nil
	return err
}

// inflate ends an 8-bit stream and writes the first rows of its indices
// into dst through pal.
func (s *pngStream) inflate(dst *image.RGBA, pal []color.RGBA, rows int) error {
	if err := s.close(); err != nil {
		return err
	}
	chunks := make([]io.Reader, len(s.idat))
	for i, c := range s.idat {
		chunks[i] = bytes.NewReader(c)
	}
	zr, err := zlib.NewReader(io.MultiReader(chunks...))
	if err != nil {
		return err
	}
	for y := range rows {
		if _, err := io.ReadFull(zr, s.row); err != nil {
			return err
		}
		out := dst.Pix[y*dst.Stride:]
		for x, ci := range s.row[1:] {
			binary.LittleEndian.PutUint32(out[4*x:], pixel(pal[ci]))
		}
	}
	return nil
}
