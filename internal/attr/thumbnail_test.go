package attr

import (
	"strings"
	"testing"

	"msite/internal/html"
	"msite/internal/imaging"
	"msite/internal/spec"
)

const mediaPage = `<html><body>
<h1>Gallery</h1>
<object id="flash" width="400" height="300" data="/media/tour.swf">
  <embed src="/media/tour.swf" width="400" height="300">
</object>
<video id="clip" src="/media/build.mp4" width="320" height="240"></video>
<p>caption text</p>
</body></html>`

func TestThumbnailReplacesRichMedia(t *testing.T) {
	sp := &spec.Spec{
		Name: "media", Origin: "http://o/",
		Objects: []spec.Object{
			{Name: "flash", Selector: "#flash", Attributes: []spec.Attribute{
				{Type: spec.AttrThumbnail, Params: map[string]string{"scale": "0.25"}},
			}},
			{Name: "clip", Selector: "#clip", Attributes: []spec.Attribute{
				{Type: spec.AttrThumbnail, Params: map[string]string{"href": "/media/build.mp4"}},
			}},
		},
	}
	a := &Applier{ViewportWidth: 800}
	res, err := a.Apply(sp, html.Tidy(mediaPage))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Assets) != 2 {
		t.Fatalf("assets = %d", len(res.Assets))
	}
	for _, asset := range res.Assets {
		if len(asset.Data) == 0 || asset.MIME != "image/jpeg" {
			t.Fatalf("asset %q empty or wrong mime %q", asset.Name, asset.MIME)
		}
		if asset.Data[0] != 0xff || asset.Data[1] != 0xd8 {
			t.Fatalf("asset %q not a JPEG", asset.Name)
		}
	}

	out := html.Render(res.Doc)
	if strings.Contains(out, "<object") || strings.Contains(out, "<video") {
		t.Fatal("rich media elements remain")
	}
	// Flash thumbnail at 0.25 scale: 400x300 → 100x75.
	if !strings.Contains(out, `width="100"`) || !strings.Contains(out, `height="75"`) {
		t.Fatalf("flash thumb dimensions wrong: %s", out)
	}
	// Video thumbnail links to the configured target.
	if !strings.Contains(out, `href="/media/build.mp4"`) {
		t.Fatal("video thumb not linked")
	}
	// Flash href fell back to the inner embed's src.
	if !strings.Contains(out, `href="/media/tour.swf"`) {
		t.Fatalf("flash thumb href fallback wrong: %s", out)
	}
	if !strings.Contains(out, "/asset/flash_thumb.jpg") || !strings.Contains(out, "/asset/clip_thumb.jpg") {
		t.Fatal("asset URLs missing")
	}
}

func TestThumbnailDefaultScale(t *testing.T) {
	sp := &spec.Spec{
		Name: "media", Origin: "http://o/",
		Objects: []spec.Object{
			{Name: "clip", Selector: "#clip", Attributes: []spec.Attribute{
				{Type: spec.AttrThumbnail},
			}},
		},
	}
	a := &Applier{ViewportWidth: 800}
	res, err := a.Apply(sp, html.Tidy(mediaPage))
	if err != nil {
		t.Fatal(err)
	}
	out := html.Render(res.Doc)
	// 320x240 at default 0.5 → 160x120.
	if !strings.Contains(out, `width="160"`) || !strings.Contains(out, `height="120"`) {
		t.Fatalf("default scale wrong: %s", out)
	}
	if len(res.Assets) != 1 {
		t.Fatal("asset missing")
	}
}

func TestThumbnailHighFidelityPNG(t *testing.T) {
	sp := &spec.Spec{
		Name: "media", Origin: "http://o/",
		Objects: []spec.Object{
			{Name: "clip", Selector: "#clip", Attributes: []spec.Attribute{
				{Type: spec.AttrThumbnail, Params: map[string]string{"fidelity": "high"}},
			}},
		},
	}
	a := &Applier{ViewportWidth: 800}
	res, err := a.Apply(sp, html.Tidy(mediaPage))
	if err != nil {
		t.Fatal(err)
	}
	asset := res.Assets[0]
	if asset.MIME != "image/png" || !strings.HasSuffix(asset.Name, ".png") {
		t.Fatalf("asset = %q %q", asset.Name, asset.MIME)
	}
	if string(asset.Data[1:4]) != "PNG" {
		t.Fatal("not a PNG")
	}
}

func TestThumbnailNoRegionNoted(t *testing.T) {
	sp := &spec.Spec{
		Name: "media", Origin: "http://o/",
		Objects: []spec.Object{
			{Name: "hidden", Selector: "#ghost", Attributes: []spec.Attribute{
				{Type: spec.AttrThumbnail},
			}},
		},
	}
	a := &Applier{ViewportWidth: 800}
	res, err := a.Apply(sp, html.Tidy(mediaPage))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Assets) != 0 {
		t.Fatal("unexpected asset")
	}
	if len(res.Notes) == 0 {
		t.Fatal("missing note for unmatched object")
	}
}

func TestThumbnailFidelityThumbAvoidsDoubleScale(t *testing.T) {
	if fidelityFromName("thumb") != imaging.FidelityThumb {
		t.Fatal("mapping sanity")
	}
	sp := &spec.Spec{
		Name: "media", Origin: "http://o/",
		Objects: []spec.Object{
			{Name: "clip", Selector: "#clip", Attributes: []spec.Attribute{
				{Type: spec.AttrThumbnail, Params: map[string]string{"fidelity": "thumb", "scale": "0.5"}},
			}},
		},
	}
	a := &Applier{ViewportWidth: 800}
	res, err := a.Apply(sp, html.Tidy(mediaPage))
	if err != nil {
		t.Fatal(err)
	}
	// The encoded image must match the declared 160x120, not 40x30.
	img, err := imaging.Decode(res.Assets[0].Data)
	if err != nil {
		t.Fatal(err)
	}
	if img.Bounds().Dx() != 160 {
		t.Fatalf("double-scaled: %v", img.Bounds())
	}
}

func TestAbsolutizeURLs(t *testing.T) {
	doc := html.Tidy(`<body>
		<a href="/forumdisplay.php?f=2">rel</a>
		<a href="thread.php?t=1">docrel</a>
		<a href="http://other.test/x">abs</a>
		<a href="#top">anchor</a>
		<a href="javascript:void(0)">js</a>
		<a href="JavaScript:void(0)">mixed-case js</a>
		<a href="HTTPS://other.test/y">upper-case abs</a>
		<a href="/subpage/login">internal</a>
		<img src="/images/logo.gif">
		<form action="/login.php"></form>
	</body>`)
	n := AbsolutizeURLs(doc, "http://origin.test/index.php", "/subpage/", "/asset/")
	if n != 4 {
		t.Fatalf("rewrites = %d", n)
	}
	out := html.Render(doc)
	for _, want := range []string{
		`href="http://origin.test/forumdisplay.php?f=2"`,
		`href="http://origin.test/thread.php?t=1"`,
		`src="http://origin.test/images/logo.gif"`,
		`action="http://origin.test/login.php"`,
		`href="http://other.test/x"`,
		`href="#top"`,
		`href="javascript:void(0)"`,
		`href="JavaScript:void(0)"`,
		`href="HTTPS://other.test/y"`,
		`href="/subpage/login"`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %s in %s", want, out)
		}
	}
}

func TestAbsolutizeURLsBadBase(t *testing.T) {
	doc := html.Tidy(`<a href="/x">y</a>`)
	if AbsolutizeURLs(doc, "not a url") != 0 {
		t.Fatal("bad base should rewrite nothing")
	}
}

// TestThumbnailNameCollision: two objects whose names sanitize to the
// same file name ("nav bar" vs "nav_bar") used to overwrite each
// other's Asset; now the second gets a disambiguated name.
func TestThumbnailNameCollision(t *testing.T) {
	page := `<html><body>
<object id="m1" width="400" height="300" data="/a.swf"></object>
<object id="m2" width="400" height="300" data="/b.swf"></object>
</body></html>`
	sp := &spec.Spec{
		Name: "media", Origin: "http://o/",
		Objects: []spec.Object{
			{Name: "nav bar", Selector: "#m1", Attributes: []spec.Attribute{
				{Type: spec.AttrThumbnail, Params: map[string]string{"scale": "0.25"}},
			}},
			{Name: "nav_bar", Selector: "#m2", Attributes: []spec.Attribute{
				{Type: spec.AttrThumbnail, Params: map[string]string{"scale": "0.25"}},
			}},
		},
	}
	a := &Applier{ViewportWidth: 800}
	res, err := a.Apply(sp, html.Tidy(page))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Assets) != 2 {
		t.Fatalf("assets = %d, want 2", len(res.Assets))
	}
	if res.Assets[0].Name == res.Assets[1].Name {
		t.Fatalf("asset names collide: %q", res.Assets[0].Name)
	}
	out := html.Render(res.Doc)
	for _, asset := range res.Assets {
		if len(asset.Data) == 0 {
			t.Fatalf("asset %q has no data", asset.Name)
		}
		if !strings.Contains(out, "/asset/"+asset.Name) {
			t.Fatalf("doc does not reference asset %q: %s", asset.Name, out)
		}
	}
}

// TestThumbnailOutsideFrameNoted: a target laid out wholly outside the
// rendered page has no pixels to show, so it keeps its element and gets a
// note, as a target with no region does, instead of turning into a 1×1
// image of nothing.
func TestThumbnailOutsideFrameNoted(t *testing.T) {
	page := `<html><body><h1>Tour</h1>
<div id="offpage" style="margin-left:1100px;width:200px;height:100px">clip</div>
</body></html>`
	sp := &spec.Spec{
		Name: "media", Origin: "http://o/",
		Objects: []spec.Object{
			{Name: "offpage", Selector: "#offpage", Attributes: []spec.Attribute{
				{Type: spec.AttrThumbnail},
			}},
		},
	}
	res, err := (&Applier{ViewportWidth: 1024}).Apply(sp, html.Tidy(page))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Assets) != 0 {
		t.Fatalf("%d assets; the first is %d bytes", len(res.Assets), len(res.Assets[0].Data))
	}
	if !strings.Contains(html.Render(res.Doc), `id="offpage"`) {
		t.Fatal("the element was replaced")
	}
	if len(res.Notes) != 1 || !strings.Contains(res.Notes[0], "no rendered region") {
		t.Fatalf("notes %q", res.Notes)
	}
}
