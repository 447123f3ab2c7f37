package search

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"msite/internal/css"
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
	run := res.Runs()[0]
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
		"msiteSearchIndex", `["alpha",`, `["beta",`,
		"function msiteSearch", "function msiteHighlight",
		`msiteBindSearch("search-btn")`,
	} {
		if !strings.Contains(js, want) {
			t.Fatalf("js missing %q", want)
		}
	}
	// Index array must be sorted for the binary search.
	if strings.Index(js, `["alpha"`) > strings.Index(js, `["beta"`) {
		t.Fatal("index not sorted in payload")
	}
}

// decodePayload reads the index array back out of a JS payload the way
// the device runtime does: one entry per word, hits in fours.
func decodePayload(t *testing.T, js string) []Hit {
	t.Helper()
	line, _, _ := strings.Cut(js, ";\n")
	var entries [][]any
	if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "var msiteSearchIndex = ")), &entries); err != nil {
		t.Fatalf("index array does not parse: %v\n%s", err, line)
	}
	var hits []Hit
	for i, e := range entries {
		word, ok := e[0].(string)
		if !ok || len(e) < 5 || len(e)%4 != 1 {
			t.Fatalf("entry %d is %v, want a word and hits in fours", i, e)
		}
		if i > 0 && word <= entries[i-1][0].(string) {
			t.Fatalf("entry %d: %q does not sort after %q", i, word, entries[i-1][0])
		}
		for j := 1; j < len(e); j += 4 {
			n := func(k int) int { return int(e[j+k].(float64)) }
			hits = append(hits, Hit{Word: word, X: n(0), Y: n(1), W: n(2), H: n(3)})
		}
	}
	return hits
}

// TestJSPayloadDecodesToTheIndex: grouping hits under their word loses
// none and reorders none, as built and after Scale.
func TestJSPayloadDecodesToTheIndex(t *testing.T) {
	idx, _ := buildIndex(t, `<html><body><h1>alpha beta alpha</h1><p style="margin: 37px">gamma "quoted" beta
		alpha</p><p>zeta eta theta alpha kappa beta</p></body></html>`)
	if len(idx.Words()) == idx.Len() {
		t.Fatal("fixture repeats no word")
	}
	for name, ix := range map[string]*Index{"built": idx, "scaled": idx.Scale(0.45)} {
		js := ix.JS("go")
		if got := decodePayload(t, js); !reflect.DeepEqual(got, ix.hits) {
			t.Errorf("%s: payload decodes to\n%v\nwant\n%v", name, got, ix.hits)
		}
		if got, want := strings.Count(js, `["`), len(ix.Words()); got != want {
			t.Errorf("%s: %d entries for %d distinct words", name, got, want)
		}
	}
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
	if !strings.Contains(idx.JS(""), "msiteSearchIndex = []") {
		t.Fatal("empty payload malformed")
	}
}
