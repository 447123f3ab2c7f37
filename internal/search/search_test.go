package search

import (
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
