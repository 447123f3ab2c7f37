package attr

import (
	"bytes"
	"strings"
	"testing"

	"msite/internal/css"
	"msite/internal/html"
	"msite/internal/imaging"
	"msite/internal/spec"
)

// forumPage models the §4.2 entry page structure: logo + banner, nav
// links, login form, forum listing.
const forumPage = `<!DOCTYPE html>
<html><head>
<title>Sawmill Creek</title>
<style type="text/css">
.tborder { background-color: #f5f5ff; border: 1px solid #8080a0 }
#loginform input { border: 1px solid #666666 }
</style>
<script type="text/javascript">function validateLogin() { return true; }</script>
</head><body>
<div id="logo"><table><tr><td><img src="/images/sawmill.gif" width="300" height="60" alt="Sawmill Creek"></td></tr></table></div>
<div id="banner"><img src="/ads/leaderboard.gif" width="728" height="90" alt="ad"></div>
<div id="navlinks">
  <a href="/help">Help</a> <a href="/members">Members</a> <a href="/calendar">Calendar</a>
  <a href="/search">Search</a> <a href="/new">New Posts</a> <a href="/faq">FAQ</a>
</div>
<form id="loginform" action="/login.php" method="post" onsubmit="return validateLogin();">
  <input type="text" name="username"> <input type="password" name="password">
  <input type="submit" value="Log in">
</form>
<table class="tborder" id="forums" width="100%">
  <tr><td><a href="/forumdisplay.php?f=2">General Woodworking</a></td><td>today</td></tr>
  <tr><td><a href="/forumdisplay.php?f=3">Project Finishing</a></td><td>today</td></tr>
</table>
<div id="whosonline">Members online: 312</div>
</body></html>`

func loginSpec() *spec.Spec {
	return &spec.Spec{
		Name:   "forum",
		Origin: "http://origin.test/",
		Objects: []spec.Object{
			{
				Name:     "login",
				Selector: "#loginform",
				Attributes: []spec.Attribute{
					{Type: spec.AttrSubpage, Params: map[string]string{"title": "Log in"}},
				},
			},
			{
				Name:     "logo",
				Selector: "#logo",
				Attributes: []spec.Attribute{
					{Type: spec.AttrCopyTo, Params: map[string]string{
						"subpage": "login", "position": "top",
						"set-attr": "src", "set-value": "/m/sawmill-mobile.gif",
					}},
				},
			},
			{
				Name:  "styles",
				XPath: "//style[1]",
				Attributes: []spec.Attribute{
					{Type: spec.AttrDependency, Params: map[string]string{"subpage": "login"}},
				},
			},
			{
				Name:     "loginjs",
				Selector: "head script",
				Attributes: []spec.Attribute{
					{Type: spec.AttrDependency, Params: map[string]string{"subpage": "login"}},
				},
			},
		},
	}
}

func apply(t *testing.T, sp *spec.Spec, page string) *Result {
	t.Helper()
	a := &Applier{ViewportWidth: 1024}
	res, err := a.Apply(sp, html.Tidy(page))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestFigure5LoginSubpage reproduces the Fig. 5 adaptation: the login
// form split to a subpage with its CSS/JS dependencies satisfied and the
// logo copied to the top with a mobile-specific image.
func TestFigure5LoginSubpage(t *testing.T) {
	res := apply(t, loginSpec(), forumPage)
	sub, ok := res.FindSubpage("login")
	if !ok {
		t.Fatal("no login subpage")
	}
	out := string(SerializeSubpage(sub))

	if !strings.Contains(out, `id="loginform"`) {
		t.Fatal("login form not moved to subpage")
	}
	if !strings.Contains(out, "#loginform input") {
		t.Fatal("CSS dependency not pulled in")
	}
	if !strings.Contains(out, "validateLogin") {
		t.Fatal("JS dependency not pulled in")
	}
	if !strings.Contains(out, "/m/sawmill-mobile.gif") {
		t.Fatal("copied logo src not replaced with mobile version")
	}
	if !strings.Contains(out, "<title>Log in</title>") {
		t.Fatal("subpage title wrong")
	}
	// The copy goes to the top: logo before the form element ("loginform"
	// alone would match the CSS dependency in head first).
	if strings.Index(out, "sawmill-mobile") > strings.Index(out, `id="loginform"`) {
		t.Fatal("logo copy not at top")
	}

	// Main document: form gone, logo intact with the original desktop src.
	main := html.Render(res.Doc)
	if strings.Contains(main, `id="loginform"`) {
		t.Fatal("login form remains in main doc")
	}
	if !strings.Contains(main, "/images/sawmill.gif") {
		t.Fatal("original logo modified")
	}
}

func TestSubpageRegionRecorded(t *testing.T) {
	res := apply(t, loginSpec(), forumPage)
	sub, _ := res.FindSubpage("login")
	if !sub.Region.Valid() {
		t.Fatalf("region = %+v", sub.Region)
	}
	// The form sits below the logo (60px), banner (90px), and nav links.
	if sub.Region.Y < 150 {
		t.Fatalf("login Y = %d, want below header blocks", sub.Region.Y)
	}
}

func TestRegionScale(t *testing.T) {
	r := Region{X: 100, Y: 200, W: 300, H: 50}
	s := r.Scale(0.5)
	if s != (Region{50, 100, 150, 25}) {
		t.Fatalf("scaled = %+v", s)
	}
	if (Region{}).Valid() {
		t.Fatal("zero region should be invalid")
	}
}

func TestRemoveAndHide(t *testing.T) {
	sp := &spec.Spec{
		Name: "t", Origin: "http://o/",
		Objects: []spec.Object{
			{Name: "ad", Selector: "#banner", Attributes: []spec.Attribute{{Type: spec.AttrRemove}}},
			{Name: "who", Selector: "#whosonline", Attributes: []spec.Attribute{{Type: spec.AttrHide}}},
		},
	}
	res := apply(t, sp, forumPage)
	out := html.Render(res.Doc)
	if strings.Contains(out, "leaderboard") {
		t.Fatal("removed object remains")
	}
	who := res.Doc.ElementByID("whosonline")
	if who == nil || !strings.Contains(who.AttrOr("style", ""), "display: none") {
		t.Fatal("hide not applied")
	}
}

func TestReplaceWithHTML(t *testing.T) {
	sp := &spec.Spec{
		Name: "t", Origin: "http://o/",
		Objects: []spec.Object{
			{Name: "ad", Selector: "#banner", Attributes: []spec.Attribute{
				{Type: spec.AttrReplace, Params: map[string]string{
					"html": `<div id="mobile-ad"><img src="/ads/mobile.gif" width="300" height="50"></div>`,
				}},
			}},
		},
	}
	res := apply(t, sp, forumPage)
	out := html.Render(res.Doc)
	if strings.Contains(out, "leaderboard") || !strings.Contains(out, "mobile-ad") {
		t.Fatal("banner replacement wrong")
	}
}

func TestReplaceAttrValue(t *testing.T) {
	sp := &spec.Spec{
		Name: "t", Origin: "http://o/",
		Objects: []spec.Object{
			{Name: "logo", Selector: "#logo", Attributes: []spec.Attribute{
				{Type: spec.AttrReplace, Params: map[string]string{"attr": "src", "value": "/m/logo.gif"}},
			}},
		},
	}
	res := apply(t, sp, forumPage)
	img := res.Doc.ElementByID("logo").Elements("img")[0]
	if img.AttrOr("src", "") != "/m/logo.gif" {
		t.Fatal("deep attr replace failed")
	}
}

func TestRelocate(t *testing.T) {
	sp := &spec.Spec{
		Name: "t", Origin: "http://o/",
		Objects: []spec.Object{
			{Name: "who", Selector: "#whosonline", Attributes: []spec.Attribute{
				{Type: spec.AttrRelocate, Params: map[string]string{"target": "#logo", "position": "before"}},
			}},
		},
	}
	res := apply(t, sp, forumPage)
	logo := res.Doc.ElementByID("logo")
	if logo.PrevElement() == nil || logo.PrevElement().ID() != "whosonline" {
		t.Fatal("relocate before failed")
	}
}

func TestRelocateMissingTargetNoted(t *testing.T) {
	sp := &spec.Spec{
		Name: "t", Origin: "http://o/",
		Objects: []spec.Object{
			{Name: "who", Selector: "#whosonline", Attributes: []spec.Attribute{
				{Type: spec.AttrRelocate, Params: map[string]string{"target": "#ghost"}},
			}},
		},
	}
	res := apply(t, sp, forumPage)
	if len(res.Notes) == 0 || !strings.Contains(res.Notes[0], "not found") {
		t.Fatalf("notes = %v", res.Notes)
	}
	if res.Doc.ElementByID("whosonline") == nil {
		t.Fatal("object lost on failed relocate")
	}
}

func TestInsertHTMLPositions(t *testing.T) {
	sp := &spec.Spec{
		Name: "t", Origin: "http://o/",
		Objects: []spec.Object{
			{Name: "forums", Selector: "#forums", Attributes: []spec.Attribute{
				{Type: spec.AttrInsertHTML, Params: map[string]string{
					"html": `<div id="crumb">Home &gt; Forums</div>`, "position": "before"}},
				{Type: spec.AttrInsertHTML, Params: map[string]string{
					"html": `<div id="footer-ad">ad</div>`, "position": "after"}},
			}},
		},
	}
	res := apply(t, sp, forumPage)
	forums := res.Doc.ElementByID("forums")
	if forums.PrevElement().ID() != "crumb" || forums.NextElement().ID() != "footer-ad" {
		t.Fatal("insert positions wrong")
	}
}

func TestInsertAndRemoveJS(t *testing.T) {
	sp := &spec.Spec{
		Name: "t", Origin: "http://o/",
		Objects: []spec.Object{
			{Name: "nav", Selector: "#navlinks", Attributes: []spec.Attribute{
				{Type: spec.AttrInsertJS, Params: map[string]string{
					"code": "buildMobileMenu();", "stage": "client"}},
			}},
			{Name: "login", Selector: "#loginform", Attributes: []spec.Attribute{
				{Type: spec.AttrRemoveJS},
			}},
		},
	}
	res := apply(t, sp, forumPage)
	nav := res.Doc.ElementByID("navlinks")
	scripts := nav.Elements("script")
	if len(scripts) != 1 || scripts[0].AttrOr("data-msite", "") != "client" {
		t.Fatal("insert-js failed")
	}
	form := res.Doc.ElementByID("loginform")
	if form.HasAttr("onsubmit") {
		t.Fatal("inline handler not stripped by remove-js")
	}
}

func TestRewriteLinksVertical(t *testing.T) {
	sp := &spec.Spec{
		Name: "t", Origin: "http://o/",
		Objects: []spec.Object{
			{Name: "nav", Selector: "#navlinks", Attributes: []spec.Attribute{
				{Type: spec.AttrRewriteLinks, Params: map[string]string{"columns": "2"}},
			}},
		},
	}
	res := apply(t, sp, forumPage)
	nav := res.Doc.ElementByID("navlinks")
	table := nav.Elements("table")
	if len(table) != 1 {
		t.Fatal("no nav table")
	}
	rows := table[0].Elements("tr")
	if len(rows) != 3 { // 6 links / 2 columns
		t.Fatalf("rows = %d", len(rows))
	}
	if n := len(nav.Elements("a")); n != 6 {
		t.Fatalf("links = %d", n)
	}
}

func TestPreRenderSubpage(t *testing.T) {
	sp := &spec.Spec{
		Name: "t", Origin: "http://o/",
		Objects: []spec.Object{
			{Name: "forums", Selector: "#forums", Attributes: []spec.Attribute{
				{Type: spec.AttrSubpage, Params: map[string]string{
					"title": "Forums", "prerender": "true", "fidelity": "low"}},
			}},
		},
	}
	res := apply(t, sp, forumPage)
	sub, _ := res.FindSubpage("forums")
	if !sub.PreRender || len(sub.ImageData) == 0 {
		t.Fatal("no pre-rendered image")
	}
	// A page of text and boxes has few colours: it ships as an exact PNG
	// whatever its fidelity.
	if sub.ImageMIME != "image/png" {
		t.Fatalf("mime = %q", sub.ImageMIME)
	}
	out := string(SerializeSubpage(sub))
	if !strings.Contains(out, `src="/asset/forums.png"`) {
		t.Fatalf("subpage should reference rendered asset: %s", out)
	}
	if !bytes.HasPrefix(sub.ImageData, []byte("\x89PNG")) {
		t.Fatal("not a PNG")
	}
}

func TestSearchableSubpage(t *testing.T) {
	sp := &spec.Spec{
		Name: "t", Origin: "http://o/",
		Objects: []spec.Object{
			{Name: "forums", Selector: "#forums", Attributes: []spec.Attribute{
				{Type: spec.AttrSubpage, Params: map[string]string{"prerender": "true"}},
				{Type: spec.AttrSearchable, Params: map[string]string{"trigger": "find-btn"}},
			}},
		},
	}
	res := apply(t, sp, forumPage)
	sub, _ := res.FindSubpage("forums")
	if !strings.Contains(sub.SearchJS, "msiteSearchWords") {
		t.Fatal("no search payload")
	}
	if !strings.Contains(sub.SearchJS, `"woodworking"`) {
		t.Fatalf("forum text not indexed: %s", sub.SearchJS[:120])
	}
	out := string(SerializeSubpage(sub))
	if !strings.Contains(out, "msiteBindSearch(\"find-btn\")") || !strings.Contains(out, `id="find-btn"`) {
		t.Fatal("trigger wiring missing")
	}
}

func TestPartialCSSSubpage(t *testing.T) {
	sp := &spec.Spec{
		Name: "t", Origin: "http://o/",
		Objects: []spec.Object{
			{Name: "forums", Selector: "#forums", Attributes: []spec.Attribute{
				{Type: spec.AttrSubpage, Params: map[string]string{"title": "Forums"}},
				{Type: spec.AttrPartialCSS},
			}},
		},
	}
	res := apply(t, sp, forumPage)
	sub, _ := res.FindSubpage("forums")
	if !sub.PartialCSS || len(sub.ImageData) == 0 {
		t.Fatal("no partial-css background")
	}
	out := string(SerializeSubpage(sub))
	if !strings.Contains(out, "background-image: url(/asset/forums.png)") {
		t.Fatalf("no background: %s", out)
	}
	// Text must be client-side, absolutely positioned.
	if !strings.Contains(out, "General") || !strings.Contains(out, "position: absolute") {
		t.Fatal("client text missing")
	}
}

// TestCacheableSubpage: cacheable is accepted and changes nothing a build
// makes, since every object of an anonymous build is already shared
// across sessions through its Bundle.
func TestCacheableSubpage(t *testing.T) {
	build := func(cacheable bool) *Result {
		sp := &spec.Spec{
			Name: "t", Origin: "http://o/",
			Objects: []spec.Object{
				{Name: "forums", Selector: "#forums", Attributes: []spec.Attribute{{Type: spec.AttrSubpage}}},
				{Name: "login", Selector: "#loginform", Attributes: []spec.Attribute{{Type: spec.AttrSubpage}, {Type: spec.AttrPreRender}}},
			},
		}
		if cacheable {
			for i := range sp.Objects {
				sp.Objects[i].Attributes = append(sp.Objects[i].Attributes,
					spec.Attribute{Type: spec.AttrCacheable, Params: map[string]string{"ttl_seconds": "3600"}})
			}
		}
		if err := sp.Validate(); err != nil {
			t.Fatal(err)
		}
		return apply(t, sp, forumPage)
	}
	plain, cached := build(false), build(true)
	if login, _ := plain.FindSubpage("login"); login == nil || len(login.ImageData) == 0 {
		t.Fatal("the login subpage was not pre-rendered")
	}
	if len(plain.Subpages) != 2 || len(cached.Subpages) != len(plain.Subpages) {
		t.Fatalf("subpages: %d without cacheable, %d with", len(plain.Subpages), len(cached.Subpages))
	}
	for i, want := range plain.Subpages {
		got := cached.Subpages[i]
		if got.Name != want.Name || !bytes.Equal(SerializeSubpage(got), SerializeSubpage(want)) ||
			!bytes.Equal(got.ImageData, want.ImageData) {
			t.Fatalf("subpage %q differs with cacheable", want.Name)
		}
	}
	if html.Render(cached.Doc) != html.Render(plain.Doc) {
		t.Fatal("the entry document differs with cacheable")
	}
}

func TestAJAXSubpageFlag(t *testing.T) {
	sp := &spec.Spec{
		Name: "t", Origin: "http://o/",
		Objects: []spec.Object{
			{Name: "nav", Selector: "#navlinks", Attributes: []spec.Attribute{
				{Type: spec.AttrSubpage, Params: map[string]string{"ajax": "true"}},
			}},
		},
	}
	res := apply(t, sp, forumPage)
	sub, _ := res.FindSubpage("nav")
	if !sub.AJAX {
		t.Fatal("ajax flag lost")
	}
}

func TestAJAXifyRewrites(t *testing.T) {
	page := `<html><body><div id="pics">
		<a href="#" onclick="$('#picframe').load('site.php?do=showpic&id=5')">Show</a>
	</div></body></html>`
	sp := &spec.Spec{
		Name: "t", Origin: "http://o/",
		Objects: []spec.Object{
			{Name: "pics", Selector: "#pics", Attributes: []spec.Attribute{
				{Type: spec.AttrAJAXify},
			}},
		},
		Actions: []spec.Action{
			{ID: 1, Match: `do=showpic&id=(\d+)`, Target: "http://o/site.php?do=showpic&id=$1", Extract: "#pic"},
		},
	}
	res := apply(t, sp, page)
	if res.AJAXRewrites != 1 {
		t.Fatalf("rewrites = %d", res.AJAXRewrites)
	}
	out := html.Render(res.Doc)
	if !strings.Contains(out, "action=1") || !strings.Contains(out, "p=5") {
		t.Fatalf("link not rewritten: %s", out)
	}
	if res.Doc.ElementByID("msite-pane") == nil {
		t.Fatal("runtime pane not injected")
	}
}

func TestSubSubpageParent(t *testing.T) {
	page := `<html><body><div id="outer"><div id="inner">deep</div>rest</div></body></html>`
	sp := &spec.Spec{
		Name: "t", Origin: "http://o/",
		Objects: []spec.Object{
			{Name: "outer", Selector: "#outer", Attributes: []spec.Attribute{
				{Type: spec.AttrSubpage},
			}},
			{Name: "inner", Selector: "#inner", Attributes: []spec.Attribute{
				{Type: spec.AttrSubpage, Params: map[string]string{"parent": "outer"}},
			}},
		},
	}
	res := apply(t, sp, page)
	inner, _ := res.FindSubpage("inner")
	if inner.Parent != "outer" {
		t.Fatal("parent lost")
	}
	// Inner content leaves outer's subpage too (it was detached first or
	// moved out). Exactly one of the subpages holds "deep".
	outer, _ := res.FindSubpage("outer")
	outerHTML := string(SerializeSubpage(outer))
	innerHTML := string(SerializeSubpage(inner))
	if !strings.Contains(innerHTML, "deep") {
		t.Fatal("inner subpage missing content")
	}
	if !strings.Contains(outerHTML, "rest") {
		t.Fatal("outer subpage missing remaining content")
	}
}

func TestUnmatchedObjectNoted(t *testing.T) {
	sp := &spec.Spec{
		Name: "t", Origin: "http://o/",
		Objects: []spec.Object{
			{Name: "ghost", Selector: "#ghost", Attributes: []spec.Attribute{{Type: spec.AttrRemove}}},
		},
	}
	res := apply(t, sp, forumPage)
	if len(res.Notes) != 1 || !strings.Contains(res.Notes[0], "matched nothing") {
		t.Fatalf("notes = %v", res.Notes)
	}
}

func TestApplyRejectsInvalidSpec(t *testing.T) {
	a := &Applier{}
	_, err := a.Apply(&spec.Spec{}, html.Parse(forumPage))
	if err == nil {
		t.Fatal("invalid spec accepted")
	}
}

func TestOverlayNoAJAXOmitsRuntime(t *testing.T) {
	a := &Applier{}
	out := string(a.BuildOverlay(Overlay{SnapshotURL: "/s.jpg", Width: 10, Height: 10, Scale: 1},
		[]*Subpage{{Name: "x", Region: Region{X: 0, Y: 0, W: 5, H: 5}}}))
	if strings.Contains(out, "msiteLoad") {
		t.Fatal("runtime should be omitted without ajax areas")
	}
}

// TestFileNameHelpers: a name is made path-safe, and a pre-render's
// extension follows what it was encoded as, not the fidelity it asked for.
func TestFileNameHelpers(t *testing.T) {
	for _, tc := range []struct{ name, mime, page, asset string }{
		{"snap", "image/png", "sub_snap.html", "snap.png"},
		{"snap", "image/jpeg", "sub_snap.html", "snap.jpg"},
		{"all forums", "image/png", "sub_all_forums.html", "all_forums.png"},
		{"log in/form", "image/jpeg", "sub_log_in_form.html", "log_in_form.jpg"},
	} {
		sub := &Subpage{Name: tc.name, Fidelity: imaging.FidelityHigh, ImageMIME: tc.mime}
		if got := SubpageFileName(tc.name); got != tc.page {
			t.Errorf("SubpageFileName(%q) = %q, want %q", tc.name, got, tc.page)
		}
		if got := AssetFileName(sub); got != tc.asset {
			t.Errorf("AssetFileName(%q, %s) = %q, want %q", tc.name, tc.mime, got, tc.asset)
		}
	}
}

func TestComplexityOf(t *testing.T) {
	doc := html.Tidy(forumPage)
	c := ComplexityOf(doc, 10_000, 5)
	if c.Bytes != 10_000 || c.Requests != 5 {
		t.Fatal("bytes/requests lost")
	}
	if c.Elements < 20 {
		t.Fatalf("elements = %d", c.Elements)
	}
	if c.Images != 2 {
		t.Fatalf("images = %d", c.Images)
	}
	if c.StyleRules != 2 {
		t.Fatalf("style rules = %d", c.StyleRules)
	}
	if c.Scripts != 0 { // inline script has no src
		t.Fatalf("scripts = %d", c.Scripts)
	}
}

func TestCustomURLFuncs(t *testing.T) {
	a := &Applier{
		SubpageURL: func(name string) string { return "/u/abc/pages/" + name },
		AssetURL:   func(name string) string { return "/u/abc/images/" + name },
	}
	sp := &spec.Spec{
		Name: "t", Origin: "http://o/",
		Objects: []spec.Object{
			{Name: "forums", Selector: "#forums", Attributes: []spec.Attribute{
				{Type: spec.AttrSubpage, Params: map[string]string{"prerender": "true"}},
			}},
		},
	}
	res, err := a.Apply(sp, html.Tidy(forumPage))
	if err != nil {
		t.Fatal(err)
	}
	sub, _ := res.FindSubpage("forums")
	if !strings.Contains(string(SerializeSubpage(sub)), "/u/abc/images/forums.png") {
		t.Fatal("asset URL func ignored")
	}
	out := string(a.BuildOverlay(Overlay{SnapshotURL: "/s", Width: 1, Height: 1, Scale: 1},
		[]*Subpage{{Name: "forums", Region: Region{X: 0, Y: 0, W: 1, H: 1}}}))
	if !strings.Contains(out, "/u/abc/pages/forums") {
		t.Fatal("subpage URL func ignored")
	}
}

func TestAdaptedDocSelectable(t *testing.T) {
	// The adapted doc must remain a consistent DOM for further selection.
	res := apply(t, loginSpec(), forumPage)
	if rows, _ := css.Select(res.Doc, "#forums tr"); len(rows) != 2 {
		t.Fatal("adapted doc broken for further selection")
	}
}

func TestXPathIdentifiedSubpage(t *testing.T) {
	sp := &spec.Spec{
		Name: "t", Origin: "http://o/",
		Objects: []spec.Object{
			{Name: "stats", XPath: `//div[@id="whosonline"]`, Attributes: []spec.Attribute{
				{Type: spec.AttrSubpage, Params: map[string]string{"title": "Online"}},
			}},
		},
	}
	res := apply(t, sp, forumPage)
	sub, ok := res.FindSubpage("stats")
	if !ok {
		t.Fatal("xpath subpage missing")
	}
	if !strings.Contains(string(SerializeSubpage(sub)), "Members online") {
		t.Fatal("content missing")
	}
	if res.Doc.ElementByID("whosonline") != nil {
		t.Fatal("object remains in main doc")
	}
}

func TestMultiMatchSubpageUsesFirst(t *testing.T) {
	page := `<html><body><div class="box">first</div><div class="box">second</div></body></html>`
	sp := &spec.Spec{
		Name: "t", Origin: "http://o/",
		Objects: []spec.Object{
			{Name: "box", Selector: "div.box", Attributes: []spec.Attribute{
				{Type: spec.AttrSubpage},
			}},
		},
	}
	res := apply(t, sp, page)
	sub, _ := res.FindSubpage("box")
	out := string(SerializeSubpage(sub))
	if !strings.Contains(out, "first") || strings.Contains(out, "second") {
		t.Fatalf("first-match semantics violated: %s", out)
	}
	if !strings.Contains(html.Render(res.Doc), "second") {
		t.Fatal("second box should stay in main doc")
	}
}

func TestInsertJSServerStage(t *testing.T) {
	sp := &spec.Spec{
		Name: "t", Origin: "http://o/",
		Objects: []spec.Object{
			{Name: "nav", Selector: "#navlinks", Attributes: []spec.Attribute{
				{Type: spec.AttrInsertJS, Params: map[string]string{
					"code": "reorderForServer();", "stage": "server"}},
			}},
		},
	}
	res := apply(t, sp, forumPage)
	script := res.Doc.ElementByID("navlinks").Elements("script")
	if len(script) != 1 || script[0].AttrOr("data-msite", "") != "server" {
		t.Fatal("server-stage script not inserted")
	}
	// Server-stage scripts are present in the DOM the renderer consumes
	// but the renderer never executes or paints them.
	found := false
	for r := range res.Layout.Runs() {
		if strings.Contains(r.Text, "reorderForServer") {
			found = true
		}
	}
	if found {
		t.Fatal("script text must not paint")
	}
}

// TestRelocateBeforeDetachedTargetDoesNotPanic reproduces the relocate
// nil-parent crash: an earlier object removes a container, so a later
// relocate whose target selector resolves to that detached subtree's
// root found a dest with no Parent — position=before then dereferenced
// dest.Parent and panicked. Now it notes and skips like a missing
// target.
func TestRelocateBeforeDetachedTargetDoesNotPanic(t *testing.T) {
	page := `<html><body><div id="junk"><p id="x">stranded paragraph</p></div><p>rest of page</p></body></html>`
	for _, position := range []string{"before", "after"} {
		sp := &spec.Spec{Name: "r", Origin: "http://o/", Objects: []spec.Object{
			{Name: "junk", Selector: "#junk", Attributes: []spec.Attribute{
				{Type: spec.AttrRemove},
			}},
			{Name: "x", Selector: "#x", Attributes: []spec.Attribute{
				{Type: spec.AttrRelocate, Params: map[string]string{
					"target": "#junk", "position": position,
				}},
			}},
		}}
		a := &Applier{ViewportWidth: 800}
		res, err := a.Apply(sp, html.Tidy(page))
		if err != nil {
			t.Fatalf("position=%s: %v", position, err)
		}
		noted := false
		for _, n := range res.Notes {
			if strings.Contains(n, "has no parent") {
				noted = true
			}
		}
		if !noted {
			t.Fatalf("position=%s: parentless target not noted: %v", position, res.Notes)
		}
	}
}
