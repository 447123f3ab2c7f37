// Package search implements the searchable-snapshot attribute (§3.3
// "Search"): a sorted word index built on the server from the rendered
// page text, with the pixel location of each word, shipped to the device
// as a JavaScript array plus a binary-search function. It is what lets a
// pre-rendered image be searched.
package search

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"msite/internal/layout"
)

// Hit is one indexed word occurrence with its rendered location.
type Hit struct {
	Word string
	// X, Y, W, H locate the word in snapshot pixels.
	X, Y, W, H int
}

// Index is a sorted word index over a rendered page.
type Index struct {
	hits []Hit // sorted by Word, then Y, then X
	// w, h is the size of the image the hits locate words in.
	w, h int
}

// Build constructs the index from a layout's text runs. Words are
// lowercased and stripped of surrounding punctuation; words shorter than
// two characters are skipped.
func Build(res *layout.Result) *Index {
	var hits []Hit
	for _, run := range res.Runs() {
		word := normalizeWord(run.Text)
		if len(word) >= 2 {
			hits = append(hits, Hit{
				Word: word,
				X:    int(run.X),
				Y:    int(run.Y),
				W:    int(run.Width() + 0.5),
				H:    int(run.Height() + 0.5),
			})
		}
	}
	sort.Slice(hits, func(i, j int) bool {
		if hits[i].Word != hits[j].Word {
			return hits[i].Word < hits[j].Word
		}
		if hits[i].Y != hits[j].Y {
			return hits[i].Y < hits[j].Y
		}
		return hits[i].X < hits[j].X
	})
	return &Index{hits: hits, w: max(res.Width, 1), h: max(res.Height, 1)}
}

func normalizeWord(s string) string {
	return strings.Trim(strings.ToLower(s), ".,;:!?\"'()[]{}<>")
}

// Len returns the number of indexed occurrences.
func (idx *Index) Len() int { return len(idx.hits) }

// Words returns the distinct indexed words, sorted.
func (idx *Index) Words() []string {
	var out []string
	prev := ""
	for _, h := range idx.hits {
		if h.Word != prev {
			out = append(out, h.Word)
			prev = h.Word
		}
	}
	return out
}

// Lookup binary-searches for a word and returns its occurrences — the
// same algorithm the generated JavaScript runs on the device.
func (idx *Index) Lookup(word string) []Hit {
	word = normalizeWord(word)
	lo := sort.Search(len(idx.hits), func(i int) bool {
		return idx.hits[i].Word >= word
	})
	hi := lo
	for hi < len(idx.hits) && idx.hits[hi].Word == word {
		hi++
	}
	if lo == hi {
		return nil
	}
	out := make([]Hit, hi-lo)
	copy(out, idx.hits[lo:hi])
	return out
}

// Scale returns a copy of the index for the image scaled by factor (the
// framework "implicitly translates the coordinates", §4.3). A scaled hit
// still covers its word: the origin is floored and the far edge ceiled,
// and the box is kept at least a pixel wide and high and inside the scaled
// image, which has the size imaging.ScaleFactor gives it.
func (idx *Index) Scale(factor float64) *Index {
	out := &Index{
		hits: make([]Hit, len(idx.hits)),
		w:    max(int(float64(idx.w)*factor), 1),
		h:    max(int(float64(idx.h)*factor), 1),
	}
	// span scales [at, at+size) and fits it inside [0, limit).
	span := func(at, size, limit int) (int, int) {
		lo := min(max(int(math.Floor(float64(at)*factor)), 0), limit-1)
		hi := min(int(math.Ceil(float64(at+size)*factor)), limit)
		return lo, max(hi-lo, 1)
	}
	for i, h := range idx.hits {
		out.hits[i].Word = h.Word
		out.hits[i].X, out.hits[i].W = span(h.X, h.W, out.w)
		out.hits[i].Y, out.hits[i].H = span(h.Y, h.H, out.h)
	}
	return out
}

// JS emits the client payload: the ordered index array, a binary-search
// function, and a trigger hookup for the element the site administrator
// designated (§3.3: "the site administrator must define an HTML element
// (button or link) to make the initial Javascript call"). The array has
// one entry per distinct word, the word and then x,y,w,h for each of its
// occurrences in order: ["word",x,y,w,h,x,y,w,h,...] — a page repeats its
// words, and a word is most of what a hit costs to write.
func (idx *Index) JS(triggerID string) string {
	var b strings.Builder
	b.WriteString("var msiteSearchIndex = [")
	for i, h := range idx.hits {
		if i == 0 || h.Word != idx.hits[i-1].Word {
			if i > 0 {
				b.WriteString("],")
			}
			fmt.Fprintf(&b, "[%q", h.Word)
		}
		fmt.Fprintf(&b, ",%d,%d,%d,%d", h.X, h.Y, h.W, h.H)
	}
	if len(idx.hits) > 0 {
		b.WriteByte(']')
	}
	b.WriteString("];\n")
	b.WriteString(searchRuntimeJS)
	if triggerID != "" {
		fmt.Fprintf(&b, "msiteBindSearch(%q);\n", triggerID)
	}
	return b.String()
}

// searchRuntimeJS is the device-side runtime: binary search over the
// sorted words, a word's hits read off its entry four numbers at a time,
// plus a highlight overlay positioned at the first hit's coordinates.
const searchRuntimeJS = `function msiteSearch(word) {
  word = word.toLowerCase();
  var lo = 0, hi = msiteSearchIndex.length;
  while (lo < hi) {
    var mid = (lo + hi) >> 1;
    if (msiteSearchIndex[mid][0] < word) { lo = mid + 1; } else { hi = mid; }
  }
  var hits = [], entry = msiteSearchIndex[lo];
  if (entry && entry[0] === word) {
    for (var i = 1; i + 3 < entry.length; i += 4) { hits.push(entry.slice(i, i + 4)); }
  }
  return hits;
}
function msiteHighlight(hits) {
  var old = document.getElementById('msite-hit');
  if (old) { old.parentNode.removeChild(old); }
  if (!hits.length) { return; }
  var h = hits[0];
  var box = document.createElement('div');
  box.id = 'msite-hit';
  box.style.position = 'absolute';
  box.style.left = h[0] + 'px';
  box.style.top = h[1] + 'px';
  box.style.width = h[2] + 'px';
  box.style.height = h[3] + 'px';
  box.style.border = '2px solid red';
  document.body.appendChild(box);
  window.scrollTo(0, Math.max(0, h[1] - 40));
}
function msiteBindSearch(id) {
  var el = document.getElementById(id);
  if (!el) { return; }
  el.onclick = function () {
    var word = window.prompt('Search page:');
    if (word) { msiteHighlight(msiteSearch(word)); }
    return false;
  };
}
`
