package admin

import (
	"strings"
	"testing"

	"msite/internal/html"
	"msite/internal/spec"
	"msite/internal/xpath"
)

const page = `<!DOCTYPE html>
<html><head>
<title>Test</title>
<style type="text/css">#loginform input { border: 1px solid red } .unrelated { color: blue }</style>
<style type="text/css">.navbar { background-color: gray }</style>
<script type="text/javascript">function validateLogin() { return true; }</script>
<script type="text/javascript">function unrelatedThing() { return 0; }</script>
<script src="/external.js"></script>
</head><body>
<div id="logo"><img src="/logo.gif" width="100" height="40"></div>
<div class="navbar"><a href="/a">A</a> <a href="/b">B</a></div>
<form id="loginform" onsubmit="return validateLogin();">
  <input type="text" name="u"> <input type="submit" value="Go">
</form>
<table class="listing"><tr><td>General Woodworking topics</td></tr></table>
<div>anonymous div without class</div>
</body></html>`

func TestInspectInventory(t *testing.T) {
	objects := Inspect(page, 800)
	byID := map[string]ObjectInfo{}
	var tags []string
	for _, o := range objects {
		tags = append(tags, o.Tag)
		if o.ID != "" {
			byID[o.ID] = o
		}
	}
	if _, ok := byID["logo"]; !ok {
		t.Fatalf("logo not in inventory: %v", tags)
	}
	login := byID["loginform"]
	if login.Selector != "#loginform" {
		t.Fatalf("selector = %q", login.Selector)
	}
	if !login.Region.Valid() {
		t.Fatal("login region missing")
	}
	if login.XPath == "" {
		t.Fatal("xpath missing")
	}
	// Class containers and tables are selectable.
	foundNav, foundTable := false, false
	for _, o := range objects {
		if o.Selector == "div.navbar" {
			foundNav = true
		}
		if o.Tag == "table" {
			foundTable = true
			if !strings.Contains(o.TextPreview, "General") {
				t.Fatalf("preview = %q", o.TextPreview)
			}
		}
	}
	if !foundNav || !foundTable {
		t.Fatal("nav/table missing from inventory")
	}
	// Anonymous divs are not selectable noise.
	for _, o := range objects {
		if o.Tag == "div" && o.ID == "" && len(o.Classes) == 0 {
			t.Fatal("anonymous div in inventory")
		}
	}
}

func TestInspectNonVisualDock(t *testing.T) {
	objects := Inspect(page, 800)
	styles, scripts := 0, 0
	for _, o := range objects {
		if !o.NonVisual {
			continue
		}
		switch o.Tag {
		case "style":
			styles++
		case "script":
			scripts++
		}
		if o.Region.Valid() {
			t.Fatalf("non-visual %s has a region", o.Tag)
		}
	}
	if styles != 2 || scripts != 3 {
		t.Fatalf("dock: styles=%d scripts=%d", styles, scripts)
	}
}

func TestDetectDependencies(t *testing.T) {
	doc := html.Tidy(page)
	deps, err := DetectDependencies(doc, "#loginform")
	if err != nil {
		t.Fatal(err)
	}
	// Expect the style with the #loginform rule and the script defining
	// validateLogin — not the unrelated ones, not the external script.
	if len(deps) != 2 {
		t.Fatalf("deps = %v", deps)
	}
	for _, d := range deps {
		if len(xpath.MustCompile(d).Select(doc)) != 1 {
			t.Fatalf("dep %q does not resolve to one node", d)
		}
	}
	// The matched style must be the #loginform one.
	style := xpath.MustCompile(deps[0]).Select(doc)[0]
	if !strings.Contains(style.FirstChild.Data, "#loginform") &&
		!strings.Contains(xpath.MustCompile(deps[1]).Select(doc)[0].FirstChild.Data, "#loginform") {
		t.Fatal("wrong style matched")
	}
}

func TestDetectDependenciesErrors(t *testing.T) {
	doc := html.Tidy(page)
	if _, err := DetectDependencies(doc, ":bad("); err == nil {
		t.Fatal("bad selector accepted")
	}
	if _, err := DetectDependencies(doc, "#ghost"); err == nil {
		t.Fatal("no-match selector accepted")
	}
}

func TestJSCalls(t *testing.T) {
	calls := jsCalls("return validateLogin() && $j.ajax(x); notACall;")
	joined := strings.Join(calls, ",")
	if !strings.Contains(joined, "validateLogin") || !strings.Contains(joined, "ajax") {
		t.Fatalf("calls = %v", calls)
	}
	if strings.Contains(joined, "notACall") {
		t.Fatal("non-call captured")
	}
}

func TestAutoDependencies(t *testing.T) {
	doc := html.Tidy(page)
	sp := &spec.Spec{Name: "auto", Origin: "http://o/", Objects: []spec.Object{
		{Name: "login", Selector: "#loginform", Attributes: []spec.Attribute{
			{Type: spec.AttrSubpage, Params: map[string]string{"title": "Log in"}},
		}},
	}}
	sp.Objects = append(sp.Objects, AutoDependencies(sp, doc)...)
	if err := sp.Validate(); err != nil {
		t.Fatal(err)
	}
	// Two dependencies detected for the login form (its style rule and
	// validateLogin script), each wired to the subpage.
	deps := 0
	for _, o := range sp.Objects {
		if strings.HasPrefix(o.Name, "dep_login_") {
			deps++
			at, ok := o.Attr(spec.AttrDependency)
			if !ok || at.Param("subpage", "") != "login" {
				t.Fatalf("dependency wiring wrong: %+v", o)
			}
		}
	}
	if deps != 2 {
		t.Fatalf("deps = %d", deps)
	}
}

func TestAutoDependenciesSkipsUnmatched(t *testing.T) {
	doc := html.Tidy(page)
	sp := &spec.Spec{Name: "auto", Origin: "http://o/", Objects: []spec.Object{
		{Name: "ghost", Selector: "#ghost", Attributes: []spec.Attribute{
			{Type: spec.AttrSubpage, Params: map[string]string{"title": "G"}},
		}},
	}}
	if deps := AutoDependencies(sp, doc); len(deps) != 0 {
		t.Fatalf("unexpected dependency objects: %+v", deps)
	}
}
