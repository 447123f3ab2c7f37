package dom

import "unsafe"

// Slab cuts the values of one tree from shared chunks, so that a tree of
// many small values costs an allocation a chunk rather than one a value:
// the parser's nodes and attribute lists, a stylesheet's selectors and
// declarations, a layout's boxes and text runs.
//
// Values leave a slab one at a time (New) or as windows (Add, then Cut).
// A window is cut with len == cap, so appending to it copies it out
// rather than writing over the window after it. The last window cut can
// be reopened and grown in place (Reopen). A chunk lives as long as
// any value cut from it; a slab is kept only while its tree is built, so
// no chunk outlives the tree it holds. The zero Slab is ready to use.
type Slab[T any] struct {
	// Chunk is how many values a new chunk holds, up to maxChunkBytes of
	// them, or more when one window needs more. The owner may change it
	// between calls.
	Chunk int
	buf   []T
	// open is where the open window starts in buf: len(buf) when none
	// is open.
	open int
}

// New returns a pointer to a zero T no other call returns. It must not
// be called while a window is open; values it returns never move.
func (s *Slab[T]) New() *T {
	var zero T
	s.Add(zero)
	return &s.Cut()[0]
}

// Add appends v to the open window, opening one if none is. When the
// chunk is full the window moves to a new chunk with room for at least
// as many values again, which is the only time a slab copies values: a
// window of n values, however large, is copied O(n) values in all.
func (s *Slab[T]) Add(v T) {
	if len(s.buf) == cap(s.buf) {
		window := s.buf[s.open:]
		s.buf = append(newChunk[T](s.Chunk, 2*len(window)+1), window...)
		s.open = 0
	}
	s.buf = append(s.buf, v)
}

// maxChunkBytes is the most a chunk takes unless a window needs more:
// the largest object the allocator serves from a size class. It rounds a
// larger one up to whole 8 KB pages.
const maxChunkBytes = 32 << 10

// newChunk returns an empty chunk of size values, or of as many as fit
// maxChunkBytes when that is fewer, but never of fewer than need: the
// cap bounds the chunks a slab sizes, not the room a window asks for.
func newChunk[T any](size, need int) []T {
	var zero T
	most := maxChunkBytes / max(int(unsafe.Sizeof(zero)), 1)
	return make([]T, 0, max(min(size, most), need))
}

// Cut closes the open window and returns it, or nil when it is empty.
func (s *Slab[T]) Cut() []T {
	if s.open == len(s.buf) {
		return nil
	}
	w := s.buf[s.open:len(s.buf):len(s.buf)]
	s.open = len(s.buf)
	return w
}

// Clone returns a window holding a copy of vs, or nil when vs is empty.
// It must not be called while a window is open.
func (s *Slab[T]) Clone(vs []T) []T {
	if cap(s.buf)-len(s.buf) < len(vs) {
		s.buf = newChunk[T](s.Chunk, len(vs))
		s.open = 0
	}
	s.buf = append(s.buf, vs...)
	return s.Cut()
}

// Reopen makes w, a window cut from s, the open window again when it is
// empty or the last window cut from the current chunk, so that Add
// extends it in place and the next Cut returns all of it, and reports
// whether it did.
// A window with another cut after it is left as it is: moving it to the
// tail would copy it again each time another window came between, so
// the caller grows it elsewhere. It must not be called while a window
// is open.
func (s *Slab[T]) Reopen(w []T) bool {
	n := len(w)
	if n == 0 {
		return true
	}
	if n > s.open || &s.buf[s.open-n] != &w[0] {
		return false
	}
	s.open -= n
	return true
}
