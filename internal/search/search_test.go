package search

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"
	"unicode/utf8"

	"msite/internal/css"
	"msite/internal/dom"
	"msite/internal/html"
	"msite/internal/layout"
)

func buildIndex(t *testing.T, src string) (*Index, *layout.Result) {
	t.Helper()
	doc := html.Parse(src)
	res := layout.Layout(doc, css.StylerForDocument(doc), layout.Viewport{Width: 600})
	return Build(res), res
}

func TestBuildAndLookup(t *testing.T) {
	idx, _ := buildIndex(t, `<html><body>
		<p>General Woodworking discussion</p>
		<p>Woodworking projects and more projects</p>
	</body></html>`)
	hits := idx.Lookup("woodworking")
	if len(hits) != 2 {
		t.Fatalf("woodworking hits = %d", len(hits))
	}
	if hits[0].Y > hits[1].Y {
		t.Fatal("hits not in position order")
	}
	if len(idx.Lookup("projects")) != 2 {
		t.Fatal("projects hits wrong")
	}
	if idx.Lookup("absent") != nil {
		t.Fatal("absent word should be nil")
	}
}

func TestLookupCaseAndPunctuation(t *testing.T) {
	idx, _ := buildIndex(t, `<html><body><p>Hello, World!</p></body></html>`)
	if len(idx.Lookup("HELLO")) != 1 {
		t.Fatal("case-insensitive lookup failed")
	}
	if len(idx.Lookup("world")) != 1 {
		t.Fatal("punctuation not stripped")
	}
}

func TestShortWordsSkipped(t *testing.T) {
	idx, _ := buildIndex(t, `<html><body><p>a I to be or</p></body></html>`)
	if len(idx.Lookup("a")) != 0 {
		t.Fatal("single-char word indexed")
	}
	if len(idx.Lookup("to")) != 1 {
		t.Fatal("two-char word should be indexed")
	}
}

func TestWordsSortedDistinct(t *testing.T) {
	idx, _ := buildIndex(t, `<html><body><p>beta alpha beta gamma alpha</p></body></html>`)
	words := idx.Words()
	if strings.Join(words, " ") != "alpha beta gamma" {
		t.Fatalf("words = %v", words)
	}
}

func TestHitCoordinatesMatchLayout(t *testing.T) {
	idx, res := buildIndex(t, `<html><body><p>findme</p></body></html>`)
	hits := idx.Lookup("findme")
	if len(hits) != 1 {
		t.Fatal("missing hit")
	}
	run := slices.Collect(res.Runs())[0]
	if hits[0].X != int(run.X) || hits[0].Y != int(run.Y) {
		t.Fatalf("hit at %d,%d; run at %v,%v", hits[0].X, hits[0].Y, run.X, run.Y)
	}
}

func TestScale(t *testing.T) {
	idx, _ := buildIndex(t, `<html><body><p style="margin: 100px">findme</p></body></html>`)
	orig := idx.Lookup("findme")[0]
	scaled := idx.Scale(0.5).Lookup("findme")[0]
	if scaled.X != orig.X/2 || scaled.Y != orig.Y/2 {
		t.Fatalf("scaled = %+v, orig = %+v", scaled, orig)
	}
}

// TestScaledHitsCoverTheirWord: at any factor a scaled hit contains the
// scaled box of the word it indexes, is at least a pixel in each axis —
// truncating each coordinate on its own stopped a pixel short on both axes
// and collapsed to nothing at small factors — and lies inside the scaled
// image.
func TestScaledHitsCoverTheirWord(t *testing.T) {
	idx, res := buildIndex(t, `<html><body><h1>alpha beta</h1><p style="margin: 37px">gamma delta
		epsilon</p><p>zeta eta theta iota kappa lambda</p></body></html>`)
	for _, f := range []float64{0.45, 0.5, 0.33, 0.11, 0.01} {
		scaled := idx.Scale(f)
		w, h := max(int(float64(res.Width)*f), 1), max(int(float64(res.Height)*f), 1)
		for _, word := range idx.Words() {
			orig, got := idx.Lookup(word), scaled.Lookup(word)
			if len(orig) != len(got) {
				t.Fatalf("factor %v: %q has %d hits, scaled %d", f, word, len(orig), len(got))
			}
			for i, o := range orig {
				g := got[i]
				if g.W < 1 || g.H < 1 || g.X < 0 || g.Y < 0 || g.X+g.W > w || g.Y+g.H > h {
					t.Fatalf("factor %v: %q scaled to %+v, outside the %dx%d image", f, word, g, w, h)
				}
				x0, x1 := float64(o.X)*f, min(float64(o.X+o.W)*f, float64(w))
				y0, y1 := float64(o.Y)*f, min(float64(o.Y+o.H)*f, float64(h))
				if float64(g.X) > x0 || float64(g.X+g.W) < x1 || float64(g.Y) > y0 || float64(g.Y+g.H) < y1 {
					t.Fatalf("factor %v: %q hit %+v does not cover its scaled box [%v,%v)x[%v,%v)", f, word, g, x0, x1, y0, y1)
				}
			}
		}
	}
}

func TestJSPayload(t *testing.T) {
	idx, _ := buildIndex(t, `<html><body><p>alpha beta</p></body></html>`)
	js := idx.JS("search-btn")
	for _, want := range []string{
		`var msiteSearchWords=["alpha","beta"],msiteSearchLines="`, `",msiteSearchHits="`,
		"function msiteVLQ", "function msiteSearch", "function msiteHighlight",
		`msiteBindSearch("search-btn")`,
	} {
		if !strings.Contains(js, want) {
			t.Fatalf("js missing %q", want)
		}
	}
	// alpha and beta share a line, which the table names once.
	_, lines, _ := strings.Cut(js, `msiteSearchLines="`)
	lines, _, _ = strings.Cut(lines, `"`)
	if table, err := decodeVLQ(lines); err != nil || len(table) != 2 {
		t.Fatalf("line table %q decodes to %v (%v), want one line", lines, table, err)
	}
}

// TestAppendVLQ: numbers are written as source maps write them.
func TestAppendVLQ(t *testing.T) {
	for v, want := range map[int]string{
		0: "A", 1: "C", -1: "D", 15: "e", -15: "f", 16: "gB", -16: "hB",
		511: "+f", 512: "ggB", 1 << 30: "ggggggC",
	} {
		if got := string(appendVLQ(nil, v)); got != want {
			t.Errorf("appendVLQ(%d) = %q, want %q", v, got, want)
		}
	}
}

// decodeVLQ reads a string of Base64 VLQ numbers, as the device runtime
// does.
func decodeVLQ(s string) ([]int, error) {
	var out []int
	v, shift := 0, 0
	for i := 0; i < len(s); i++ {
		d := strings.IndexByte(vlqDigits, s[i])
		if d < 0 {
			return nil, fmt.Errorf("%q is not a Base64 digit", s[i])
		}
		v |= (d & 31) << shift
		shift += 5
		if d&32 != 0 {
			continue
		}
		if v&1 != 0 {
			out = append(out, -(v >> 1))
		} else {
			out = append(out, v>>1)
		}
		v, shift = 0, 0
	}
	if shift != 0 {
		return nil, fmt.Errorf("%q ends inside a number", s)
	}
	return out, nil
}

// decodePayload reads the index back out of a JS payload the way the
// device runtime does: the words, each strictly after the one before, so
// a word has one entry; the line table, each (y, h) strictly after the
// one before and each the line of some hit; and the k-th word's hits as
// the k-th comma-separated string, each hit a line delta with the
// same-width flag, an x delta and, without the flag, a w delta.
func decodePayload(t *testing.T, js string) []Hit {
	t.Helper()
	rest, ok := strings.CutPrefix(js, "var msiteSearchWords=")
	if !ok {
		t.Fatalf("payload does not open with the words: %.40q", js)
	}
	dec := json.NewDecoder(strings.NewReader(rest))
	var words []string
	if err := dec.Decode(&words); err != nil {
		t.Fatalf("word array does not parse: %v\n%s", err, js)
	}
	rest = rest[dec.InputOffset():]
	rest, ok = strings.CutPrefix(rest, `,msiteSearchLines="`)
	linesVLQ, rest, ok2 := strings.Cut(rest, `",msiteSearchHits="`)
	postings, _, ok3 := strings.Cut(rest, "\";\n")
	if !ok || !ok2 || !ok3 {
		t.Fatalf("payload does not set the lines and hits after the words:\n%s", js)
	}
	table, err := decodeVLQ(linesVLQ)
	if err != nil || len(table)%2 != 0 {
		t.Fatalf("line table %q decodes to %v (%v), want (y, h) pairs", linesVLQ, table, err)
	}
	var lines []line
	for i := 0; i < len(table); i += 2 {
		var prev line
		if i > 0 {
			prev = lines[len(lines)-1]
		}
		l := line{prev.y + table[i], prev.h + table[i+1]}
		if i > 0 && compareLines(prev, l) >= 0 {
			t.Fatalf("line %d: %v does not sort after %v", i/2, l, prev)
		}
		lines = append(lines, l)
	}
	used := make([]bool, len(lines))
	strs := strings.Split(postings, ",")
	if len(words) == 0 && postings == "" {
		strs = nil
	}
	if len(strs) != len(words) {
		t.Fatalf("%d hit strings for %d words", len(strs), len(words))
	}
	var hits []Hit
	for k, word := range words {
		if k > 0 && word <= words[k-1] {
			t.Fatalf("word %d: %q does not sort after %q", k, word, words[k-1])
		}
		n, err := decodeVLQ(strs[k])
		if err != nil || len(n) == 0 {
			t.Fatalf("word %q: hits %q decode to %v (%v)", word, strs[k], n, err)
		}
		var prev Hit
		at := 0
		for len(n) > 0 {
			sameW := n[0]&1 != 0
			at += (n[0] - n[0]&1) / 2
			if len(n) < 2 || !sameW && len(n) < 3 || at < 0 || at >= len(lines) {
				t.Fatalf("word %q: hits %q end inside a hit or name no line", word, strs[k])
			}
			h := Hit{Word: word, X: prev.X + n[1], Y: lines[at].y, W: prev.W, H: lines[at].h}
			if n = n[2:]; !sameW {
				if n[0] == 0 {
					t.Fatalf("word %q: an unchanged width written as a delta", word)
				}
				h.W, n = prev.W+n[0], n[1:]
			}
			used[at] = true
			hits = append(hits, h)
			prev = h
		}
	}
	for i, u := range used {
		if !u {
			t.Fatalf("line %d %v holds no hit", i, lines[i])
		}
	}
	return hits
}

// TestJSPayloadDecodesToTheIndex: delta-coding hits under their word loses
// none and reorders none, as built and after Scale.
func TestJSPayloadDecodesToTheIndex(t *testing.T) {
	idx, _ := buildIndex(t, `<html><body><h1>alpha beta alpha</h1><p style="margin: 37px">gamma "quoted" beta
		alpha</p><p>zeta eta theta alpha kappa beta</p></body></html>`)
	if len(idx.Words()) == idx.Len() {
		t.Fatal("fixture repeats no word")
	}
	for name, ix := range map[string]*Index{"built": idx, "scaled": idx.Scale(0.45)} {
		if got := decodePayload(t, ix.JS("go")); !reflect.DeepEqual(got, ix.hits) {
			t.Errorf("%s: payload decodes to\n%v\nwant\n%v", name, got, ix.hits)
		}
	}
}

// TestJSCannotCloseItsScript: origin text that spells a closing tag is
// indexed as a word, and the page the payload ships in still has one
// </script>: the word is escaped, and reads back as it was.
func TestJSCannotCloseItsScript(t *testing.T) {
	const word = "x</script><img/src=1/onerror=alert(1)>y"
	idx, _ := buildIndex(t, `<html><body><p>x&lt;/script&gt;&lt;img/src=1/onerror=alert(1)&gt;y</p></body></html>`)
	if len(idx.Lookup(word)) != 1 {
		t.Fatalf("fixture indexes %v, want %q", idx.Words(), word)
	}
	page := html.Parse(`<html><body></body></html>`)
	script := dom.NewElement("script")
	script.AppendChild(dom.NewText(idx.JS(`"</script><b>`)))
	page.Body().AppendChild(script)
	if n := strings.Count(strings.ToLower(html.Render(page)), "</script"); n != 1 {
		t.Fatalf("the page holds %d </script, want 1:\n%s", n, html.Render(page))
	}
	if got := decodePayload(t, idx.JS("")); !reflect.DeepEqual(got, idx.hits) {
		t.Fatalf("payload decodes to %v, want %v", got, idx.hits)
	}
}

// FuzzSearchJS: any words and boxes give a payload that cannot end the
// <script> it ships in and decodes back to exactly the index, and the
// trigger id reads back as given. Boxes are 32-bit, as pixels are.
func FuzzSearchJS(f *testing.F) {
	box := func(v ...int32) []byte {
		var b []byte
		for _, n := range v {
			b = binary.LittleEndian.AppendUint32(b, uint32(n))
		}
		return b
	}
	f.Add("alpha\x00beta\x00alpha", box(10, 20, 30, 8, 5, 40, 30, 8, -7, 0, 1<<30, -1<<31), "search-btn")
	f.Add("x</script><img src=1>\x00bell\aok\x00\u2028\U0001F600\x00<!--", box(1, 2, 3, 4, 1, 2, 3, 4, 0, 0, 0, 0), `"</SCRIPT>`)
	// Two lines at one y, told apart by h: alpha's second hit is on the
	// line before its first.
	f.Add("alpha\x00alpha\x00beta", box(0, 10, 5, 20, 5, 10, 5, 12, 9, 10, 5, 20), "go")
	// A hit left of the one before it, on a later line.
	f.Add("alpha", box(50, 10, 20, 8, 5, 30, 20, 8), "go")
	// Empty indexes, with and without a trigger.
	f.Add("", box(), "")
	f.Add("alpha", box(), "search-btn")
	f.Fuzz(func(t *testing.T, words string, boxes []byte, trigger string) {
		if !utf8.ValidString(words) || !utf8.ValidString(trigger) {
			t.Skip("a word ships as valid UTF-8")
		}
		list := strings.Split(words, "\x00")
		idx := &Index{}
		for i := 0; i+16 <= len(boxes); i += 16 {
			n := func(k int) int { return int(int32(binary.LittleEndian.Uint32(boxes[i+4*k:]))) }
			idx.hits = append(idx.hits, Hit{Word: list[i/16%len(list)], X: n(0), Y: n(1), W: n(2), H: n(3)})
		}
		sortHits(idx.hits)
		js := idx.JS(trigger)
		if lower := strings.ToLower(js); strings.Contains(lower, "</script") || strings.Contains(lower, "<!--") {
			t.Fatalf("payload can end or escape its <script>:\n%s", js)
		}
		if got := decodePayload(t, js); !reflect.DeepEqual(got, idx.hits) {
			t.Fatalf("payload decodes to\n%v\nwant\n%v", got, idx.hits)
		}
		_, call, bound := strings.Cut(js, "\nmsiteBindSearch(")
		if bound != (trigger != "") {
			t.Fatalf("trigger %q: bound %v", trigger, bound)
		}
		var id string
		if bound {
			if err := json.NewDecoder(strings.NewReader(call)).Decode(&id); err != nil || id != trigger {
				t.Fatalf("trigger %q reads back as %q (%v)", trigger, id, err)
			}
		}
	})
}

func TestJSNoTrigger(t *testing.T) {
	idx, _ := buildIndex(t, `<html><body><p>word</p></body></html>`)
	// The runtime defines msiteBindSearch but must not invoke it.
	if strings.Contains(idx.JS(""), `msiteBindSearch("`) {
		t.Fatal("no trigger binding expected")
	}
}

func TestEmptyIndex(t *testing.T) {
	idx, _ := buildIndex(t, `<html><body></body></html>`)
	if idx.Len() != 0 {
		t.Fatalf("len = %d", idx.Len())
	}
	if idx.Lookup("anything") != nil {
		t.Fatal("empty index lookup should be nil")
	}
	if !strings.HasPrefix(idx.JS(""), `var msiteSearchWords=[],msiteSearchLines="",msiteSearchHits="";`+"\n") {
		t.Fatal("empty payload malformed")
	}
}

// buildByNormalizeWord is Build as it was written before it lowered
// words into one string: normalizeWord of every run.
func buildByNormalizeWord(res *layout.Result) []Hit {
	var hits []Hit
	for run := range res.Runs() {
		if word := normalizeWord(run.Text); len(word) >= 2 {
			hits = append(hits, Hit{Word: word, X: int(run.X), Y: int(run.Y),
				W: int(run.Width() + 0.5), H: int(run.Height() + 0.5)})
		}
	}
	sortHits(hits)
	return hits
}

// TestBuildWordsAreNormalizeWord: Build's words are normalizeWord of each
// run, whatever its case, punctuation and encoding, and words that trim
// or lower to fewer than 2 bytes are left out alike.
func TestBuildWordsAreNormalizeWord(t *testing.T) {
	words := []string{
		"forum", "Forum", "FORUM", "WoodWorking", "x9", "X9",
		"(Forums),", `"Quoted!"`, "[ok]", "...", "(A)", "B.", "c",
		"Ünïcödé", "ÄB", "éa", "İ", "K", "İX", "ŞİŞLİ",
		"\xff", "A\xff", "\xc3(", "(\xe2\x82)", "Bad\xedvalue",
	}
	idx, res := buildIndex(t, "<html><body><p>"+strings.Join(words, " ")+"</p></body></html>")
	invalid := false
	for run := range res.Runs() {
		invalid = invalid || !utf8.ValidString(run.Text)
	}
	if !invalid {
		t.Fatal("no run carries invalid UTF-8; the case is not covered")
	}
	if want := buildByNormalizeWord(res); !reflect.DeepEqual(idx.hits, want) {
		t.Fatalf("Build indexed\n%q\nnormalizeWord gives\n%q", hitWords(idx.hits), hitWords(want))
	}
}

func hitWords(hits []Hit) []string {
	out := make([]string, len(hits))
	for i, h := range hits {
		out[i] = h.Word
	}
	return out
}

// TestBuildAllocationBudget: the index's own allocations do not grow with
// the number of capitalised words: every lowered word is written into one
// string. Until then each took a string of its own.
func TestBuildAllocationBudget(t *testing.T) {
	const words = 2000
	page := func(word string) *layout.Result {
		_, res := buildIndex(t, "<html><body><p>"+strings.Repeat(word+" ", words)+"</p></body></html>")
		return res
	}
	lower, capitalised := page("woodworking"), page("Woodworking")
	lowerAllocs := testing.AllocsPerRun(10, func() { Build(lower) })
	capitalisedAllocs := testing.AllocsPerRun(10, func() { Build(capitalised) })
	t.Logf("| %d words | allocations |", words)
	t.Logf("|---|---|")
	t.Logf("| lower case | %.0f |", lowerAllocs)
	t.Logf("| capitalised | %.0f |", capitalisedAllocs)
	if capitalisedAllocs > lowerAllocs+1 {
		t.Errorf("indexing %d capitalised words allocated %.0f objects, %.0f for lower-case ones; budget one more", words, capitalisedAllocs, lowerAllocs)
	}
}

// TestJSAllocationBudget: writing the payload takes the same allocations
// whatever the number of words, and no more than the budget: it is sized
// first and written once, and a hit finds its line by binary search, not
// in a map.
func TestJSAllocationBudget(t *testing.T) {
	const hits, budget = 2000, 7
	allocs := func(words int) float64 {
		idx := &Index{}
		for i := range hits {
			idx.hits = append(idx.hits, Hit{Word: fmt.Sprintf("w%04d", i%words),
				X: 13 * (i % 10), Y: 20 * (i / 10), W: 30 + i%3, H: 12 + i%2})
		}
		sortHits(idx.hits)
		return testing.AllocsPerRun(10, func() { idx.JS("search-btn") })
	}
	few, many := allocs(20), allocs(hits)
	t.Logf("| JS over %d hits | allocations | budget |", hits)
	t.Logf("|---|---|---|")
	t.Logf("| 20 words | %.0f | %d |", few, budget)
	t.Logf("| %d words | %.0f | %d |", hits, many, budget)
	if many != few || many > budget {
		t.Errorf("JS made %.0f allocations over %d words and %.0f over 20; want the same, at most %d", many, hits, few, budget)
	}
}
