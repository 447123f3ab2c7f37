package dom

import (
	"slices"
	"testing"
)

// TestSlabWindows: windows are cut with len == cap and keep their values
// however many chunks the slab runs to; a value from New never moves.
func TestSlabWindows(t *testing.T) {
	s := Slab[int]{Chunk: 4}
	var windows [][]int
	var want [][]int
	for i := range 20 {
		w := make([]int, i%5)
		for j := range w {
			w[j] = 100*i + j
			s.Add(w[j])
		}
		windows = append(windows, s.Cut())
		if len(w) == 0 {
			w = nil
		}
		want = append(want, w)
	}
	for i, w := range windows {
		if len(w) != cap(w) || !slices.Equal(w, want[i]) {
			t.Fatalf("window %d = %v (cap %d), want %v", i, w, cap(w), want[i])
		}
	}
	// Appending to a window copies it out and leaves its neighbour.
	grown := append(windows[3], -1)
	if &grown[0] == &windows[3][0] || !slices.Equal(windows[4], want[4]) {
		t.Fatalf("append to a window wrote into the slab: next window %v, want %v", windows[4], want[4])
	}

	ptrs := Slab[[4]int]{Chunk: 2}
	var got []*[4]int
	for i := range 7 {
		p := ptrs.New()
		p[0] = i
		got = append(got, p)
	}
	for i, p := range got {
		if p[0] != i {
			t.Fatalf("value %d from New reads %d", i, p[0])
		}
	}
}

// TestSlabReopen: a window reopened while it is the last one cut grows in
// place; one with a window cut after it is not reopened, and the slab is
// left as it was.
func TestSlabReopen(t *testing.T) {
	s := Slab[string]{Chunk: 16}
	a := s.Clone([]string{"a0", "a1"})
	if !s.Reopen(a) {
		t.Fatal("the last window cut was not reopened")
	}
	s.Add("a2")
	grown := s.Cut()
	if &grown[0] != &a[0] || !slices.Equal(grown, []string{"a0", "a1", "a2"}) || len(grown) != cap(grown) {
		t.Fatalf("reopened last window = %v (cap %d), not grown in place", grown, cap(grown))
	}
	b := s.Clone([]string{"b0"})
	if s.Reopen(grown) {
		t.Fatal("a window with another cut after it was reopened")
	}
	s.Add("c0")
	if c := s.Cut(); !slices.Equal(c, []string{"c0"}) || !slices.Equal(b, []string{"b0"}) ||
		!slices.Equal(grown, []string{"a0", "a1", "a2"}) {
		t.Fatalf("after a refused reopen the windows read %v, %v, %v", grown, b, c)
	}
	if !s.Reopen(nil) || s.Cut() != nil || s.Clone(nil) != nil {
		t.Fatal("an empty window is not nil")
	}
}

// TestSlabLargeWindow: a window grown far past the largest chunk a slab
// sizes moves to a chunk at least twice its size each time it fills one,
// so n values cost O(log n) chunks, as append's doubling would, not one
// chunk a value.
func TestSlabLargeWindow(t *testing.T) {
	const n = 1 << 17 // 1 MB of ints, 32 times maxChunkBytes
	var w []int
	allocs := testing.AllocsPerRun(5, func() {
		s := Slab[int]{Chunk: 64}
		s.Add(-1)
		s.Cut()
		if !s.Reopen(nil) {
			t.Fatal("no window could be opened")
		}
		for i := range n {
			s.Add(i)
		}
		w = s.Cut()
	})
	if len(w) != n || w[0] != 0 || w[n-1] != n-1 || len(w) != cap(w) {
		t.Fatalf("window of %d values: len %d cap %d", n, len(w), cap(w))
	}
	if allocs > 20 {
		t.Errorf("growing one window to %d values took %.0f chunks; want O(log n)", n, allocs)
	}
}
