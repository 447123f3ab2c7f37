package attr_test

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"image"
	"image/color"
	"image/png"
	"net/http/httptest"
	"runtime"
	"testing"

	"msite/internal/attr"
	"msite/internal/css"
	"msite/internal/experiments"
	"msite/internal/html"
	"msite/internal/imaging"
	"msite/internal/layout"
	"msite/internal/origin"
	"msite/internal/progressive"
	"msite/internal/raster"
	"msite/internal/search"
	"msite/internal/spec"
)

// applyForum applies the evaluation spec (pre-rendered, searchable forums
// subpage; thumbnailed shop tour) to the default synthetic forum's entry
// page.
func applyForum(t *testing.T, mutate func(*spec.Spec)) *attr.Result {
	t.Helper()
	return applyForumSeed(t, origin.DefaultForumConfig().Seed, mutate)
}

// applyForumSeed is applyForum on the forum generated from seed.
func applyForumSeed(t *testing.T, seed int64, mutate func(*spec.Spec)) *attr.Result {
	t.Helper()
	cfg := origin.DefaultForumConfig()
	cfg.Seed = seed
	rec := httptest.NewRecorder()
	origin.NewForum(cfg).Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/", nil))
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

// The forum spec's artifacts. TestPreRenderIsLossless is what says the
// forums images are right; their digests say only that they did not move.
const (
	// The palette PNG of ScaleFactor(Paint(res), 0.45): 48 colours.
	goldenForumsScaledPNG = "32325:023b66bf9dca3999b994d9e0d95e695e6374e20c91625dcd8478a267ad882a5c"
	// The palette PNG of Paint(res).
	goldenForumsPNG = "38285:7368cf4c9fca1b3183c3c2dcd6b82cc6186d6aefc52e0440981110c1e0a2d55d"
	// The page around the unscaled image: captured when the search index
	// went to one entry per word, again when its <img> went .png, again
	// when a word's hits went to one string of deltas, and again when the
	// index named each row of text once.
	goldenForumsHTML = "5891:ccf9a01a893a902df5ccea7ba4fd914473d077b5de7f17f49f00ea82d7e7bd38"
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
	if got := digest(sub.ImageData); got != goldenForumsScaledPNG {
		t.Errorf("band-folded forums.png is %s, want the scaled full paint %s", got, goldenForumsScaledPNG)
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
	if want := fmt.Sprintf(`<img src="/asset/forums.png" alt="Forums" width="%d" height="%d">`, w, h); !bytes.Contains(page, []byte(want)) {
		t.Fatalf("subpage lacks %s", want)
	}
	// The page ships the forums index, and every hit of it lies inside the
	// image.
	idx := forumsIndex(t, origin.DefaultForumConfig().Seed)
	if !bytes.Contains(page, []byte(sub.SearchJS)) {
		t.Fatal("subpage lacks its search payload")
	}
	hits := 0
	for _, word := range idx.Words() {
		for _, v := range idx.Lookup(word) {
			if v.W < 1 || v.H < 1 || v.X < 0 || v.Y < 0 || v.X+v.W > w || v.Y+v.H > h {
				t.Fatalf("hit %+v lies outside the %dx%d image", v, w, h)
			}
			hits++
		}
	}
	if hits < 500 {
		t.Fatalf("search index has %d hits", hits)
	}
	// The thumbnail is painted in bands of the object's rectangle of the
	// page, not cropped from a full paint; its bytes are the crop's.
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
		if got := digest(sub.ImageData); got != goldenForumsPNG {
			t.Errorf("%s: forums.png is %s, want %s", name, got, goldenForumsPNG)
		}
		if got := digest(attr.SerializeSubpage(sub)); got != goldenForumsHTML {
			t.Errorf("%s: forums subpage is %s, want %s", name, got, goldenForumsHTML)
		}
	}
}

// TestPreRenderIsLossless is the oracle for the forums image: it decodes
// to exactly the frame the renderer paints — ScaleFactor(Paint(res),
// 0.45) at the spec's snapshot.scale, Paint(res) itself at scale 1 —
// where res is the forums subpage laid out as the pre-render lays it out.
func TestPreRenderIsLossless(t *testing.T) {
	painted := raster.Paint(forumsLayout(t, origin.DefaultForumConfig().Seed), raster.Options{})
	for _, tc := range []struct {
		name   string
		mutate func(*spec.Spec)
		want   *image.RGBA
	}{
		{"scaled", nil, imaging.ScaleFactor(painted, 0.45)},
		{"as-painted", func(sp *spec.Spec) { sp.Snapshot.Scale = 1 }, painted},
	} {
		sub, _ := applyForum(t, tc.mutate).FindSubpage("forums")
		if sub.ImageMIME != "image/png" {
			t.Fatalf("%s: forums image is %s", tc.name, sub.ImageMIME)
		}
		got, err := png.Decode(bytes.NewReader(sub.ImageData))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got.Bounds() != tc.want.Bounds() {
			t.Fatalf("%s: decoded %v, painted %v", tc.name, got.Bounds(), tc.want.Bounds())
		}
		b := got.Bounds()
		for y := b.Min.Y; y < b.Max.Y; y++ {
			for x := b.Min.X; x < b.Max.X; x++ {
				if c := color.RGBAModel.Convert(got.At(x, y)); c != tc.want.RGBAAt(x, y) {
					t.Fatalf("%s: pixel (%d,%d) decodes to %v, painted %v", tc.name, x, y, c, tc.want.RGBAAt(x, y))
				}
			}
		}
	}
}

// TestScaledRenderHoldsNoFrame: rendering the forums pre-render at the
// spec's scale allocates less than one RGBA frame of its output (460×1162
// at 4 bytes a pixel, 2.1 MB), encoder state included: the painted bands
// are folded into an image held as palette indices.
func TestScaledRenderHoldsNoFrame(t *testing.T) {
	res := forumsLayout(t, origin.DefaultForumConfig().Seed)
	cfg := progressive.Config{Raster: raster.Options{Workers: 2}, Fidelity: imaging.FidelityLow, Exact: true, Scale: 0.45}
	var least uint64
	var out progressive.Artifact
	for i := 0; i < 3; i++ { // the first render also fills the encoders' buffer pool
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		var err error
		if out, err = progressive.Render(res, cfg); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if n := after.TotalAlloc - before.TotalAlloc; i == 0 || n < least {
			least = n
		}
	}
	frame := uint64(4 * out.Width * out.Height)
	t.Logf("a %dx%d render allocates %d B; an RGBA frame of it is %d B", out.Width, out.Height, least, frame)
	if least >= frame {
		t.Fatalf("a %dx%d render allocated %d B, at least an RGBA frame (%d B)", out.Width, out.Height, least, frame)
	}
}

// forumsLayout lays the forums subpage of the forum generated from seed out
// as its pre-render does: the subpage as the attribute phase leaves it, at
// the spec's viewport width.
func forumsLayout(t *testing.T, seed int64) *layout.Result {
	t.Helper()
	plain, _ := applyForumSeed(t, seed, func(sp *spec.Spec) {
		forums := &sp.Objects[len(sp.Objects)-1]
		forums.Attributes = []spec.Attribute{{Type: spec.AttrSubpage, Params: map[string]string{"title": "Forums"}}}
	}).FindSubpage("forums")
	return layout.Layout(plain.Doc, css.StylerForDocument(plain.Doc, plain.Sheets), layout.Viewport{Width: 1024})
}

// forumsIndex is the word index the evaluation spec's forums subpage ships
// for the forum generated from seed, as an Index: its payload is the
// subpage's SearchJS byte for byte.
func forumsIndex(t *testing.T, seed int64) *search.Index {
	t.Helper()
	sub, _ := applyForumSeed(t, seed, nil).FindSubpage("forums")
	idx := search.Build(forumsLayout(t, seed)).Scale(0.45)
	if idx.JS("msite-search") != sub.SearchJS {
		t.Fatal("the forums index built here is not the one the subpage ships")
	}
	return idx
}
