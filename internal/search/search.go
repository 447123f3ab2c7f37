// Package search implements the searchable-snapshot attribute (§3.3
// "Search"): a sorted word index built on the server from the rendered
// page text, with the pixel location of each word, shipped to the device
// as a JavaScript array plus a binary-search function. It is what lets a
// pre-rendered image be searched.
package search

import (
	"encoding/json"
	"iter"
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

// JS emits the client payload: the ordered index array, the device
// runtime, and a trigger hookup for the element the site administrator
// designated (§3.3: "the site administrator must define an HTML element
// (button or link) to make the initial Javascript call"). The array is flat,
// two slots per distinct word: ["word","<hits>","word","<hits>",...], words
// sorted. A word's hits are one string of Base64 VLQ numbers (the source-map
// encoding), four per hit in index order: its x, y, w and h less those of
// the word's previous hit, the first hit's less zero. A page repeats its
// words and its rows, so most deltas are a character or two.
//
// Every string is written as HTML-safe JSON: encoding/json escapes <, > and
// &, so no word can close the <script> the payload ships in, and U+2028 and
// U+2029, which older JavaScript does not allow in a string literal. A word
// that is not valid UTF-8 ships with U+FFFD for its bad bytes.
func (idx *Index) JS(triggerID string) string {
	// Every word's hits are written into one string, which the words'
	// entries slice: a first pass sizes it, so writing it takes one
	// allocation, and ends[k] is where the k-th word's hits end.
	var vlq [13]byte // the most digits appendVLQ writes
	size, words := 0, 0
	for hits := range idx.words() {
		for d := range deltas(hits) {
			size += len(appendVLQ(vlq[:0], d))
		}
		words++
	}
	var all strings.Builder
	all.Grow(size)
	ends := make([]int, 0, words)
	for hits := range idx.words() {
		for d := range deltas(hits) {
			all.Write(appendVLQ(vlq[:0], d))
		}
		ends = append(ends, all.Len())
	}
	written := all.String()
	entries := make([]string, 0, 2*words)
	start := 0
	for hits := range idx.words() {
		end := ends[len(entries)/2]
		entries = append(entries, hits[0].Word, written[start:end])
		start = end
	}
	var b strings.Builder
	b.WriteString("var msiteSearchIndex=")
	b.Write(htmlSafeJSON(entries))
	b.WriteString(";\n")
	b.WriteString(searchRuntimeJS)
	if triggerID != "" {
		b.WriteString("msiteBindSearch(")
		b.Write(htmlSafeJSON(triggerID))
		b.WriteString(");\n")
	}
	return b.String()
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

// deltas yields the numbers one word's hits are written as, four a hit:
// its x, y, w and h less those of the hit before, the first hit's less
// zero.
func deltas(hits []Hit) iter.Seq[int] {
	return func(yield func(int) bool) {
		var prev Hit
		for _, h := range hits {
			for _, d := range [4]int{h.X - prev.X, h.Y - prev.Y, h.W - prev.W, h.H - prev.H} {
				if !yield(d) {
					return
				}
			}
			prev = h
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
// msiteSearch normalises the query as Lookup does (lowercase, wordTrim cut
// from both ends), binary-searches the even slots for it and decodes only
// that word's hit string into [x,y,w,h] boxes; its arithmetic is exact to
// 2^53. msiteHighlight outlines the first hit and scrolls to it;
// msiteBindSearch makes the trigger element prompt for a word.
const searchRuntimeJS = `function msiteSearch(q){q=q.toLowerCase().replace(/^[.,;:!?"'()[\]{}<>]+|[.,;:!?"'()[\]{}<>]+$/g,"");var a=msiteSearchIndex,l=0,h=a.length>>1,m,r=[];while(l<h){m=l+h>>1;if(a[2*m]<q)l=m+1;else h=m}if(a[2*l]!==q)return r;for(var s=a[2*l+1],b=[0,0,0,0],i=0,k=0,v,f,d;i<s.length;){v=0;f=1;do{d="` + vlqDigits + `".indexOf(s.charAt(i++));v+=(d&31)*f;f*=32}while(d&32);b[k]+=v%2?(1-v)/2:v/2;if(++k>3){r.push(b.slice());k=0}}return r}
function msiteHighlight(r){var d=document,o=d.getElementById("msite-hit"),h=r[0],e;if(o)o.parentNode.removeChild(o);if(!h)return;e=d.createElement("div");e.id="msite-hit";e.style.cssText="position:absolute;left:"+h[0]+"px;top:"+h[1]+"px;width:"+h[2]+"px;height:"+h[3]+"px;border:2px solid red";d.body.appendChild(e);scrollTo(0,Math.max(0,h[1]-40))}
function msiteBindSearch(id){var e=document.getElementById(id);if(e)e.onclick=function(){var q=prompt("Search page:");if(q)msiteHighlight(msiteSearch(q));return false}}
`
