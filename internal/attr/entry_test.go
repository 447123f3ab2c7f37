package attr

import (
	"os"
	"strings"
	"testing"

	"msite/internal/html"
)

func overlaySubpages() []*Subpage {
	return []*Subpage{
		{Name: "login", Title: "Log in", Region: Region{X: 100, Y: 200, W: 400, H: 80}},
		{Name: "nav", Title: "Nav", Region: Region{X: 0, Y: 100, W: 1000, H: 40}, AJAX: true},
		{Name: "deep", Title: "Deep", Region: Region{X: 0, Y: 2000, W: 1000, H: 100}},
		{Name: "nested", Title: "Nested", Region: Region{X: 1, Y: 1, W: 5, H: 5}, Parent: "login"},
		{Name: "invisible", Title: "None"},
	}
}

// TestBuildOverlayBuffered: one area per top-level subpage with a
// region, in subpage order (not by position on the snapshot),
// coordinates scaled, and the AJAX runtime wired for the AJAX area.
func TestBuildOverlayBuffered(t *testing.T) {
	out := string((&Applier{}).BuildOverlay(Overlay{
		SnapshotURL: "/asset/snapshot.jpg", Scale: 0.45, Title: "m.Forum",
	}, overlaySubpages()))
	for _, want := range []string{
		`usemap="#msite-map"`, "function msiteLoad", "msiteLoad('/subpage/nav')",
		// login at 100,200 scaled by 0.45
		`coords="45,90,225,126"`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("overlay missing %q", want)
		}
	}
	if n := strings.Count(out, "<area"); n != 3 {
		t.Fatalf("area count = %d, want 3 (nested and invisible excluded)", n)
	}
	login, nav, deep := strings.Index(out, "/subpage/login"), strings.Index(out, "/subpage/nav"), strings.Index(out, "/subpage/deep")
	if !(login < nav && nav < deep) {
		t.Fatalf("areas not in subpage order (login %d, nav %d, deep %d)", login, nav, deep)
	}
	// Unknown geometry is omitted, not rendered as zeros.
	if strings.Contains(out, `width="0"`) {
		t.Fatal("zero geometry rendered into the img")
	}
}

// TestBufferedOverlayMatchesGolden pins the entry page to the bytes the
// separate document builder produced before this builder became the
// only one (AJAX pane included).
func TestBufferedOverlayMatchesGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/overlay_buffered.golden.html")
	if err != nil {
		t.Fatal(err)
	}
	got := (&Applier{}).BuildOverlay(Overlay{
		SnapshotURL: "/asset/snapshot.jpg", Width: 460, Height: 1350,
		Scale: 0.45, Title: "m.Forum",
	}, overlaySubpages())
	if string(got) != string(want) {
		t.Fatalf("buffered overlay moved:\n got %s\nwant %s", got, want)
	}
}

// TestBuildOverlayStreamFragmentsConcatenate keeps the name from when
// the entry page was built as head, map and tail fragments. The one
// builder must still emit those parts whole and in that order: document
// head, the snapshot img, the map with its areas, the AJAX runtime, and
// the closing tags last.
func TestBuildOverlayStreamFragmentsConcatenate(t *testing.T) {
	page := string((&Applier{}).BuildOverlay(Overlay{
		SnapshotURL: "/asset/snapshot.jpg", Scale: 0.45, Title: "m.Forum",
	}, overlaySubpages()))
	if !strings.HasPrefix(page, "<!DOCTYPE html>") || !strings.HasSuffix(page, "</body></html>") {
		t.Fatalf("page is not one whole document: %.60s ... %.60s", page, page[max(0, len(page)-60):])
	}
	last := -1
	for _, want := range []string{
		"<title>m.Forum</title>",
		`usemap="#msite-map"`,
		`<map name="msite-map">`,
		// login at 100,200 scaled by 0.45
		`coords="45,90,225,126"`,
		"</map>",
		"function msiteLoad",
		"</body></html>",
	} {
		i := strings.Index(page, want)
		if i < 0 {
			t.Fatalf("page missing %q", want)
		}
		if i < last {
			t.Fatalf("%q out of order in the page", want)
		}
		last = i
	}
	if n := strings.Count(page, "<area"); n != 3 {
		t.Fatalf("area count = %d, want 3 (nested and invisible excluded)", n)
	}
	if n := strings.Count(page, "<html"); n != 1 {
		t.Fatalf("page holds %d <html> tags, want 1", n)
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
