package attr_test

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"net/http/httptest"
	"regexp"
	"strconv"
	"testing"

	"msite/internal/attr"
	"msite/internal/experiments"
	"msite/internal/html"
	"msite/internal/imaging"
	"msite/internal/origin"
	"msite/internal/spec"
)

// applyForum applies the evaluation spec (pre-rendered, searchable forums
// subpage; thumbnailed shop tour) to the default synthetic forum's entry
// page.
func applyForum(t *testing.T, mutate func(*spec.Spec)) *attr.Result {
	t.Helper()
	rec := httptest.NewRecorder()
	origin.NewForum(origin.DefaultForumConfig()).Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/", nil))
	sp := experiments.SpecForForum("http://forum.test")
	if mutate != nil {
		mutate(sp)
	}
	res, err := (&attr.Applier{}).Apply(sp, html.Tidy(rec.Body.String()))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func digest(data []byte) string {
	return fmt.Sprintf("%d:%x", len(data), sha256.Sum256(data))
}

// Captured at the commit before pre-renders were scaled: what the forum
// spec's artifacts are when nothing asks for a scale.
const (
	// Encode(ScaleFactor(Paint(res), 0.45), low), by that commit's
	// full-frame path with the scale passed to it.
	goldenForumsScaledJPEG = "62673:b7b354257865a9396b4c6d0c81304504e2f1bea1f3266a1f537c3d3ddcc701f1"

	goldenForumsJPEG = "250673:a9b4e29e1e068d74eb4586bb5fe670db96d88e0e525adc25f70646c5a227635b"
	// Captured again when the search index went to one entry per word:
	// the same markup around the regrouped index and its runtime.
	goldenForumsHTML = "11736:7c30212111e01aafc381a4504055e7403b86809fb0d5de43fd03a2817e5e354a"
	goldenThumbJPEG  = "1576:ecd15929f88c64d7f567d1e5ec7945b7675610e0f5476a7f41dad2d6f3181d18"
)

// TestPreRenderShipsAtSnapshotScale: the forum spec's pre-rendered subpage
// is encoded at snapshot.scale, its <img> carries the encoded size, and
// every hit of its search index lies inside that image.
func TestPreRenderShipsAtSnapshotScale(t *testing.T) {
	res := applyForum(t, nil)
	sub, ok := res.FindSubpage("forums")
	if !ok {
		t.Fatal("no forums subpage")
	}
	if got := digest(sub.ImageData); got != goldenForumsScaledJPEG {
		t.Errorf("band-folded forums.jpg is %s, want the scaled full paint %s", got, goldenForumsScaledJPEG)
	}
	img, err := imaging.Decode(sub.ImageData)
	if err != nil {
		t.Fatal(err)
	}
	w, h := img.Bounds().Dx(), img.Bounds().Dy()
	if w != 460 {
		t.Fatalf("pre-render is %d px wide, want the 1024 px layout at 0.45", w)
	}
	page := attr.SerializeSubpage(sub)
	if want := fmt.Sprintf(`<img src="/asset/forums.jpg" alt="Forums" width="%d" height="%d">`, w, h); !bytes.Contains(page, []byte(want)) {
		t.Fatalf("subpage lacks %s", want)
	}
	// One entry per word, its hits following it in fours.
	hits := 0
	for _, entry := range regexp.MustCompile(`\["[^"]*"((?:,\d+)+)\]`).FindAllSubmatch(page, -1) {
		var v []int
		for _, num := range bytes.Split(entry[1][1:], []byte(",")) {
			n, _ := strconv.Atoi(string(num))
			v = append(v, n)
		}
		if len(v)%4 != 0 {
			t.Fatalf("entry %s does not hold its hits in fours", entry[0])
		}
		for ; len(v) > 0; v, hits = v[4:], hits+1 {
			if v[2] < 1 || v[3] < 1 || v[0]+v[2] > w || v[1]+v[3] > h {
				t.Fatalf("a hit of %s lies outside the %dx%d image", entry[0], w, h)
			}
		}
	}
	if hits < 500 {
		t.Fatalf("search index has %d hits", hits)
	}
	// The thumbnail is painted as a region of the page, not cropped from a
	// full paint; its bytes are the crop's.
	if len(res.Assets) != 1 || digest(res.Assets[0].Data) != goldenThumbJPEG {
		t.Fatalf("thumbnail assets %d, first %s; want %s", len(res.Assets), digest(res.Assets[0].Data), goldenThumbJPEG)
	}
}

// TestPreRenderAsPaintedWithoutAScale: with the snapshot off, or a scale
// that does not shrink, pre-renders are byte for byte what they were.
func TestPreRenderAsPaintedWithoutAScale(t *testing.T) {
	for name, mutate := range map[string]func(*spec.Spec){
		"snapshot-off": func(sp *spec.Spec) { sp.Snapshot.Enabled = false },
		"scale-one":    func(sp *spec.Spec) { sp.Snapshot.Scale = 1 },
		"no-scale":     func(sp *spec.Spec) { sp.Snapshot.Scale = 0 },
	} {
		res := applyForum(t, mutate)
		sub, _ := res.FindSubpage("forums")
		if got := digest(sub.ImageData); got != goldenForumsJPEG {
			t.Errorf("%s: forums.jpg is %s, want %s", name, got, goldenForumsJPEG)
		}
		if got := digest(attr.SerializeSubpage(sub)); got != goldenForumsHTML {
			t.Errorf("%s: forums subpage is %s, want %s", name, got, goldenForumsHTML)
		}
	}
}
