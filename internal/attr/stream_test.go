package attr

import (
	"os"
	"strings"
	"testing"

	"msite/internal/html"
)

func streamSubpages() []*Subpage {
	return []*Subpage{
		{Name: "login", Title: "Log in", Region: Region{X: 100, Y: 200, W: 400, H: 80}},
		{Name: "nav", Title: "Nav", Region: Region{X: 0, Y: 100, W: 1000, H: 40}, AJAX: true},
		{Name: "deep", Title: "Deep", Region: Region{X: 0, Y: 2000, W: 1000, H: 100}},
		{Name: "nested", Title: "Nested", Region: Region{X: 1, Y: 1, W: 5, H: 5}, Parent: "login"},
		{Name: "invisible", Title: "None"},
	}
}

func TestBuildOverlayStreamFragmentsConcatenate(t *testing.T) {
	a := &Applier{}
	frags := a.BuildOverlayStream(Overlay{
		SnapshotURL: "/asset/snapshot.jpg", Scale: 0.45, Title: "m.Forum",
	}, streamSubpages(), 480)
	page := string(frags.Head) + string(frags.ATF) + string(frags.BTF) + string(frags.Tail)
	if page != string(frags.Page()) {
		t.Fatal("Page is not the fragments in order")
	}

	for _, want := range []string{
		"<!DOCTYPE html>", "<title>m.Forum</title>",
		`usemap="#msite-map"`,
		`<map name="msite-map">`, "</map>",
		"function msiteLoad", "</body></html>",
		// login at 100,200 scaled by 0.45
		`coords="45,90,225,126"`,
	} {
		if !strings.Contains(page, want) {
			t.Errorf("concatenated page missing %q", want)
		}
	}
	if n := strings.Count(page, "<area"); n != 3 {
		t.Fatalf("area count = %d, want 3 (nested and invisible excluded)", n)
	}
	// The streamed page must carry the same areas and runtime as the
	// buffered overlay — only fragment order and the marker differ.
	buffered := bufferedOverlay(a, Overlay{
		SnapshotURL: "/asset/snapshot.jpg", Scale: 0.45, Title: "m.Forum",
	}, streamSubpages())
	for _, want := range []string{`coords="45,90,225,126"`, "msiteLoad('/subpage/nav')"} {
		if !strings.Contains(buffered, want) || !strings.Contains(page, want) {
			t.Errorf("buffered and streamed overlays disagree on %q", want)
		}
	}
}

// TestBufferedOverlayMatchesGolden pins the buffered page to the bytes
// the separate document builder produced before the fragment builder
// became the only one (AJAX pane included).
func TestBufferedOverlayMatchesGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/overlay_buffered.golden.html")
	if err != nil {
		t.Fatal(err)
	}
	got := bufferedOverlay(&Applier{}, Overlay{
		SnapshotURL: "/asset/snapshot.jpg", Width: 460, Height: 1350,
		Scale: 0.45, Title: "m.Forum",
	}, streamSubpages())
	if got != string(want) {
		t.Fatalf("buffered overlay moved:\n got %s\nwant %s", got, want)
	}
}

func TestBuildOverlayStreamATFSplit(t *testing.T) {
	a := &Applier{}
	frags := a.BuildOverlayStream(Overlay{
		SnapshotURL: "/asset/snapshot.jpg", Scale: 0.45, Title: "t",
	}, streamSubpages(), 480)
	atf, btf := string(frags.ATF), string(frags.BTF)
	// nav (y=100*0.45=45) and login (y=200*0.45=90) are above a 480px
	// fold; deep (y=2000*0.45=900) is below it.
	if !strings.Contains(atf, "/subpage/login") || !strings.Contains(atf, "/subpage/nav") {
		t.Fatalf("ATF fragment missing above-the-fold areas: %s", atf)
	}
	if strings.Contains(atf, "/subpage/deep") {
		t.Fatal("below-the-fold area leaked into the ATF fragment")
	}
	if !strings.Contains(btf, "/subpage/deep") {
		t.Fatalf("BTF fragment missing the deep area: %s", btf)
	}
	if !strings.HasSuffix(btf, "</map>") {
		t.Fatalf("BTF must close the map: %s", btf)
	}

	// atfHeight <= 0: everything is above the fold.
	frags = a.BuildOverlayStream(Overlay{SnapshotURL: "/s.jpg", Scale: 0.45}, streamSubpages(), -1)
	if strings.Count(string(frags.ATF), "<area") != 3 {
		t.Fatalf("negative fold should put every area in ATF: %s", frags.ATF)
	}
	if strings.Count(string(frags.BTF), "<area") != 0 {
		t.Fatalf("negative fold left areas in BTF: %s", frags.BTF)
	}
}

func TestBuildOverlayStreamHeadIsStatic(t *testing.T) {
	a := &Applier{}
	// The head must not depend on the subpage set: it is flushed before
	// adaptation produces one.
	before := a.BuildOverlayStream(Overlay{SnapshotURL: "/s.jpg", Scale: 1, Title: "x"}, nil, 480)
	after := a.BuildOverlayStream(Overlay{SnapshotURL: "/s.jpg", Scale: 1, Title: "x"}, streamSubpages(), 480)
	if string(before.Head) != string(after.Head) {
		t.Fatal("Head changed with the subpage set")
	}
	// Unknown geometry is omitted, not rendered as zeros.
	if strings.Contains(string(before.Head), `width="0"`) {
		t.Fatal("zero geometry rendered into the head")
	}
	sized := a.BuildOverlayStream(Overlay{SnapshotURL: "/s.jpg", Scale: 1, Width: 460, Height: 1350}, nil, 480)
	if !strings.Contains(string(sized.Head), `width="460"`) {
		t.Fatal("known geometry missing from the head")
	}
}

func TestMinimalMarkupHTML(t *testing.T) {
	doc := html.Parse(`<html><head><style>body{color:red}</style></head><body>
		<h1>Forum &amp; Friends</h1>
		<div id="banner"><img src="/big.gif"><script>evil()</script></div>
		<p>Welcome   to the
		board.</p>
		<ul><li><a href="/f/1">General</a></li><li><a href="/f/2">Off topic</a></li></ul>
		<form><input name="q"><button>Search</button></form>
		<div>Trailing text</div>
	</body></html>`)
	out := string(MinimalMarkupHTML("m.Forum", doc))

	for _, want := range []string{
		"<title>m.Forum</title>",
		"<h1>Forum &amp; Friends</h1>",
		"<p>Welcome to the board.</p>",
		`<p><a href="/f/1">General</a></p>`,
		`<p><a href="/f/2">Off topic</a></p>`,
		"<p>Trailing text</p>",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("minimal markup missing %q\nin: %s", want, out)
		}
	}
	for _, banned := range []string{"<img", "<script", "<style", "<form", "<input", "<button", "evil()"} {
		if strings.Contains(out, banned) {
			t.Errorf("minimal markup contains banned %q", banned)
		}
	}
}

func TestMinimalMarkupLinkWithoutText(t *testing.T) {
	doc := html.Parse(`<html><body><a href="/only-href"></a></body></html>`)
	out := string(MinimalMarkupHTML("t", doc))
	if !strings.Contains(out, `<p><a href="/only-href">/only-href</a></p>`) {
		t.Fatalf("href-only link not preserved: %s", out)
	}
}
