// Package search implements the searchable-snapshot attribute (§3.3
// "Search"): a sorted word index built on the server from the rendered
// page text, with the pixel location of each word, shipped to the device
// as JavaScript strings plus a binary-search function. It is what lets a
// pre-rendered image be searched.
package search

import (
	"cmp"
	"encoding/json"
	"iter"
	"math"
	"slices"
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
	lowered := 0 // the bytes of the ASCII words left to lower
	for run := range res.Runs() {
		// Every trimmed byte is ASCII punctuation, so an ASCII word can be
		// trimmed before it is lowered, and lowering keeps its length.
		word := strings.Trim(run.Text, wordTrim)
		ascii, upper := scanASCII(word)
		if !ascii {
			word = normalizeWord(run.Text)
		}
		if len(word) < 2 {
			continue
		}
		if ascii && upper {
			lowered += len(word)
		}
		hits = append(hits, Hit{
			Word: word,
			X:    int(run.X),
			Y:    int(run.Y),
			W:    int(run.Width() + 0.5),
			H:    int(run.Height() + 0.5),
		})
	}
	// The lowered words are written into one string that their hits
	// slice, sized above, so lowering them takes one allocation.
	var arena strings.Builder
	arena.Grow(lowered)
	for i := range hits {
		word := hits[i].Word
		if ascii, upper := scanASCII(word); !ascii || !upper {
			continue
		}
		start := arena.Len()
		for j := 0; j < len(word); j++ {
			c := word[j]
			if 'A' <= c && c <= 'Z' {
				c += 'a' - 'A'
			}
			arena.WriteByte(c)
		}
		hits[i].Word = arena.String()[start:]
	}
	sortHits(hits)
	return &Index{hits: hits, w: max(res.Width, 1), h: max(res.Height, 1)}
}

// scanASCII reports whether s is all ASCII and whether it has an
// upper-case letter.
func scanASCII(s string) (ascii, upper bool) {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c >= 0x80:
			return false, upper
		case 'A' <= c && c <= 'Z':
			upper = true
		}
	}
	return true, upper
}

// sortHits puts hits in index order: by Word, then Y, then X.
func sortHits(hits []Hit) {
	sort.Slice(hits, func(i, j int) bool {
		if hits[i].Word != hits[j].Word {
			return hits[i].Word < hits[j].Word
		}
		if hits[i].Y != hits[j].Y {
			return hits[i].Y < hits[j].Y
		}
		return hits[i].X < hits[j].X
	})
}

// wordTrim is the punctuation stripped from both ends of a word, by Build,
// by Lookup and by the device runtime's query normalisation.
const wordTrim = `.,;:!?"'()[]{}<>`

func normalizeWord(s string) string {
	return strings.Trim(strings.ToLower(s), wordTrim)
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

// JS emits the client payload: the index, the device runtime, and a
// trigger hookup for the element the site administrator designated (§3.3:
// "the site administrator must define an HTML element (button or link) to
// make the initial Javascript call"). The index is three variables:
//
//   - msiteSearchWords, the distinct words, sorted, as a JSON array;
//   - msiteSearchLines, the distinct (y, h) of the hits, sorted: a page's
//     rows, each written once, as its y and h less those of the row before
//     (the first row's less zero);
//   - msiteSearchHits, the k-th word's hits as the k-th of comma-separated
//     strings, in index order. A hit is its row's index less that of the
//     word's previous hit, times two, plus one if its w is the previous
//     hit's; then its x less the previous hit's; then, unless the flag is
//     set, its w less the previous hit's. The first hit's are less zero.
//
// Every number is one Base64 VLQ (the source-map encoding). A page repeats
// its rows, columns and widths: on the forum page a hit takes three or
// four characters.
//
// Every word is written as HTML-safe JSON: encoding/json escapes <, > and
// &, so no word can close the <script> the payload ships in, and U+2028
// and U+2029, which older JavaScript does not allow in a string literal. A
// word that is not valid UTF-8 ships with U+FFFD for its bad bytes. A VLQ
// digit or a comma needs no escape.
func (idx *Index) JS(triggerID string) string {
	lines := make([]line, len(idx.hits))
	for i, h := range idx.hits {
		lines[i] = line{h.Y, h.H}
	}
	slices.SortFunc(lines, compareLines)
	lines = slices.Compact(lines)
	var vlq [13]byte // the most digits appendVLQ writes
	size, words := 0, 0
	for d := range lineDeltas(lines) {
		size += len(appendVLQ(vlq[:0], d))
	}
	for hits := range idx.words() {
		for d := range hitDeltas(hits, lines) {
			size += len(appendVLQ(vlq[:0], d))
		}
		words++
	}
	list := make([]string, 0, words)
	for hits := range idx.words() {
		list = append(list, hits[0].Word)
	}
	wordsJSON := htmlSafeJSON(list)
	var trigger []byte
	if triggerID != "" {
		trigger = htmlSafeJSON(triggerID)
	}
	// The payload is sized before it is written, so writing it is one
	// allocation; 96 bytes cover the names and punctuation around the parts.
	var b strings.Builder
	b.Grow(len(wordsJSON) + size + words + len(searchRuntimeJS) + len(trigger) + 96)
	b.WriteString("var msiteSearchWords=")
	b.Write(wordsJSON)
	b.WriteString(`,msiteSearchLines="`)
	for d := range lineDeltas(lines) {
		b.Write(appendVLQ(vlq[:0], d))
	}
	b.WriteString(`",msiteSearchHits="`)
	sep := ""
	for hits := range idx.words() {
		b.WriteString(sep)
		sep = ","
		for d := range hitDeltas(hits, lines) {
			b.Write(appendVLQ(vlq[:0], d))
		}
	}
	b.WriteString("\";\n")
	b.WriteString(searchRuntimeJS)
	if trigger != nil {
		b.WriteString("msiteBindSearch(")
		b.Write(trigger)
		b.WriteString(");\n")
	}
	return b.String()
}

// line is a row of text: the y and h its hits share.
type line struct{ y, h int }

func compareLines(a, b line) int {
	if a.y != b.y {
		return cmp.Compare(a.y, b.y)
	}
	return cmp.Compare(a.h, b.h)
}

// words yields the index's hits a word at a time.
func (idx *Index) words() iter.Seq[[]Hit] {
	return func(yield func([]Hit) bool) {
		for i := 0; i < len(idx.hits); {
			j := i + 1
			for j < len(idx.hits) && idx.hits[j].Word == idx.hits[i].Word {
				j++
			}
			if !yield(idx.hits[i:j]) {
				return
			}
			i = j
		}
	}
}

// lineDeltas yields the numbers the line table is written as, two a line:
// its y and h less those of the line before, the first line's less zero.
func lineDeltas(lines []line) iter.Seq[int] {
	return func(yield func(int) bool) {
		var prev line
		for _, l := range lines {
			if !yield(l.y-prev.y) || !yield(l.h-prev.h) {
				return
			}
			prev = l
		}
	}
}

// hitDeltas yields the numbers one word's hits are written as, two or
// three a hit: its line's index less that of the hit before, times two,
// plus one if its w is the hit before's; its x less the hit before's; and,
// for a new w, its w less the hit before's. The first hit's are less zero.
func hitDeltas(hits []Hit, lines []line) iter.Seq[int] {
	return func(yield func(int) bool) {
		var prev Hit
		at := 0 // the line of the hit before
		for _, h := range hits {
			n, _ := slices.BinarySearchFunc(lines, line{h.Y, h.H}, compareLines)
			d, sameW := 2*(n-at), h.W == prev.W
			if sameW {
				d++
			}
			if !yield(d) || !yield(h.X-prev.X) || !sameW && !yield(h.W-prev.W) {
				return
			}
			prev, at = h, n
		}
	}
}

// htmlSafeJSON marshals a string or a []string, which cannot fail.
func htmlSafeJSON(v any) []byte {
	data, _ := json.Marshal(v)
	return data
}

// vlqDigits are the Base64 digits a VLQ number is written in.
const vlqDigits = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"

// appendVLQ appends v as one Base64 VLQ: the magnitude shifted left with
// the sign in the low bit, then five bits per digit, least significant
// first, with 0x20 set on every digit but the last. |v| must be below
// 2^63.
func appendVLQ(b []byte, v int) []byte {
	u := uint64(v) << 1
	if v < 0 {
		u = uint64(-v)<<1 | 1
	}
	for ; u >= 32; u >>= 5 {
		b = append(b, vlqDigits[32|u&31])
	}
	return append(b, vlqDigits[u])
}

// searchRuntimeJS is the device-side runtime, one function a line.
// msiteVLQ reads a string of Base64 VLQ numbers; its arithmetic is exact to
// 2^53. msiteSearch normalises the query as Lookup does (lowercase,
// wordTrim cut from both ends), binary-searches msiteSearchWords for it,
// and decodes the line table and only that word's hit string into
// [x,y,w,h] boxes. msiteHighlight outlines the first hit and scrolls to
// it; msiteBindSearch makes the trigger element prompt for a word.
const searchRuntimeJS = `function msiteVLQ(s){for(var r=[],i=0,v,f,d;i<s.length;r.push(v%2?(1-v)/2:v/2)){v=0;f=1;do{d="` + vlqDigits + `".indexOf(s.charAt(i++));v+=(d&31)*f;f*=32}while(d&32)}return r}
function msiteSearch(q){q=q.toLowerCase().replace(/^[.,;:!?"'()[\]{}<>]+|[.,;:!?"'()[\]{}<>]+$/g,"");var a=msiteSearchWords,l=0,h=a.length,m,r=[],L,n,i,k=0,x=0,w=0,d;while(l<h){m=l+h>>1;if(a[m]<q)l=m+1;else h=m}if(a[l]!==q)return r;L=msiteVLQ(msiteSearchLines);for(i=2;i<L.length;i++)L[i]+=L[i-2];for(n=msiteVLQ(msiteSearchHits.split(",")[l]),i=0;i<n.length;r.push([x,L[2*k],w,L[2*k+1]])){d=n[i++];k+=Math.floor(d/2);x+=n[i++];if(d%2==0)w+=n[i++]}return r}
function msiteHighlight(r){var d=document,o=d.getElementById("msite-hit"),h=r[0],e;if(o)o.parentNode.removeChild(o);if(!h)return;e=d.createElement("div");e.id="msite-hit";e.style.cssText="position:absolute;left:"+h[0]+"px;top:"+h[1]+"px;width:"+h[2]+"px;height:"+h[3]+"px;border:2px solid red";d.body.appendChild(e);scrollTo(0,Math.max(0,h[1]-40))}
function msiteBindSearch(id){var e=document.getElementById(id);if(e)e.onclick=function(){var q=prompt("Search page:");if(q)msiteHighlight(msiteSearch(q));return false}}
`
