package attr

import (
	"strings"
	"testing"

	"msite/internal/html"
	"msite/internal/spec"
)

// editPage is the page TestEditsByteIdentical adapts: nodes with and
// without a style attribute, a repeated class, a container to insert
// around and a form to split into a subpage.
const editPage = `<html><head><title>edits</title></head><body>
<div id="top"><p id="plain">plain</p><p id="styled" style="color: red">styled</p><p id="semi" style="color: red;">semi</p></div>
<ul id="list"><li class="i">one</li><li class="i">two</li></ul>
<div id="box"><span>in box</span></div>
<form id="login"><a href="/a">A</a><input name="u"><input name="p"></form>
</body></html>`

// fragments is multi-fragment markup: two elements around a text node,
// so the order each insertion lays fragments down in shows.
const fragments = `<b>1</b> mid <i>2</i>`

func editObject(name, selector string, attrs ...spec.Attribute) spec.Object {
	return spec.Object{Name: name, Selector: selector, Attributes: attrs}
}

func attribute(t spec.AttrType, kv ...string) spec.Attribute {
	p := make(map[string]string, len(kv)/2)
	for i := 0; i+1 < len(kv); i += 2 {
		p[kv[i]] = kv[i+1]
	}
	return spec.Attribute{Type: t, Params: p}
}

func insertAt(position string) spec.Attribute {
	if position == "" {
		return attribute(spec.AttrInsertHTML, "html", fragments)
	}
	return attribute(spec.AttrInsertHTML, "html", fragments, "position", position)
}

// editOutput applies objs to editPage and renders the main body, every
// subpage body and the notes.
func editOutput(t *testing.T, objs []spec.Object) string {
	t.Helper()
	sp := &spec.Spec{Name: "edits", Origin: "http://o/", Objects: objs}
	res, err := (&Applier{ViewportWidth: 800}).Apply(sp, html.Tidy(editPage))
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	b.WriteString(html.Render(res.Doc.Body()))
	for _, sub := range res.Subpages {
		b.WriteString("\n[" + sub.Name + "] " + html.Render(sub.Doc.Body()))
	}
	b.WriteString("\nnotes: " + strings.Join(res.Notes, "; "))
	return b.String()
}

// TestEditsByteIdentical pins the markup every DOM edit of the attribute
// pass produces — hide, replace-html, each insert-html position,
// relocate and copy-to within — with multi-fragment markup, duplicate
// matches, detached nodes and selectors that do not parse.
func TestEditsByteIdentical(t *testing.T) {
	cases := []struct {
		name string
		objs []spec.Object
		want string
	}{
		{name: "hide", objs: []spec.Object{
			editObject("hide", "#plain, #styled, #semi, p", attribute(spec.AttrHide)),
			editObject("hide-many", ".i", attribute(spec.AttrHide)),
		}, want: `<body>
<div id="top"><p id="plain" style="display: none">plain</p><p id="styled" style="color: red; display: none">styled</p><p id="semi" style="color: red;display: none">semi</p></div>
<ul id="list"><li class="i" style="display: none">one</li><li class="i" style="display: none">two</li></ul>
<div id="box"><span>in box</span></div>
<form id="login"><a href="/a">A</a><input name="u"><input name="p"></form>
</body>
notes: `},
		{name: "replace-html", objs: []spec.Object{
			editObject("box", "#box", attribute(spec.AttrReplace, "html", fragments)),
			editObject("items", "li, .i", attribute(spec.AttrReplace, "html", fragments)),
		}, want: `<body>
<div id="top"><p id="plain">plain</p><p id="styled" style="color: red">styled</p><p id="semi" style="color: red;">semi</p></div>
<ul id="list"><b>1</b> mid <i>2</i><b>1</b> mid <i>2</i></ul>
<b>1</b> mid <i>2</i>
<form id="login"><a href="/a">A</a><input name="u"><input name="p"></form>
</body>
notes: `},
		{name: "insert-before", objs: []spec.Object{
			editObject("box", "#box, .i", insertAt("before")),
		}, want: `<body>
<div id="top"><p id="plain">plain</p><p id="styled" style="color: red">styled</p><p id="semi" style="color: red;">semi</p></div>
<ul id="list"><b>1</b> mid <i>2</i><li class="i">one</li><b>1</b> mid <i>2</i><li class="i">two</li></ul>
<b>1</b> mid <i>2</i><div id="box"><span>in box</span></div>
<form id="login"><a href="/a">A</a><input name="u"><input name="p"></form>
</body>
notes: `},
		{name: "insert-after", objs: []spec.Object{
			editObject("box", "#box, .i", insertAt("after")),
		}, want: `<body>
<div id="top"><p id="plain">plain</p><p id="styled" style="color: red">styled</p><p id="semi" style="color: red;">semi</p></div>
<ul id="list"><li class="i">one</li><b>1</b> mid <i>2</i><li class="i">two</li><b>1</b> mid <i>2</i></ul>
<div id="box"><span>in box</span></div><b>1</b> mid <i>2</i>
<form id="login"><a href="/a">A</a><input name="u"><input name="p"></form>
</body>
notes: `},
		{name: "insert-prepend", objs: []spec.Object{
			editObject("box", "#box, .i", insertAt("prepend")),
		}, want: `<body>
<div id="top"><p id="plain">plain</p><p id="styled" style="color: red">styled</p><p id="semi" style="color: red;">semi</p></div>
<ul id="list"><li class="i"><b>1</b> mid <i>2</i>one</li><li class="i"><b>1</b> mid <i>2</i>two</li></ul>
<div id="box"><b>1</b> mid <i>2</i><span>in box</span></div>
<form id="login"><a href="/a">A</a><input name="u"><input name="p"></form>
</body>
notes: `},
		{name: "insert-append", objs: []spec.Object{
			editObject("box", "#box, .i", insertAt("append")),
		}, want: `<body>
<div id="top"><p id="plain">plain</p><p id="styled" style="color: red">styled</p><p id="semi" style="color: red;">semi</p></div>
<ul id="list"><li class="i">one<b>1</b> mid <i>2</i></li><li class="i">two<b>1</b> mid <i>2</i></li></ul>
<div id="box"><span>in box</span><b>1</b> mid <i>2</i></div>
<form id="login"><a href="/a">A</a><input name="u"><input name="p"></form>
</body>
notes: `},
		{name: "insert-default", objs: []spec.Object{
			editObject("box", "#box", insertAt("")),
		}, want: `<body>
<div id="top"><p id="plain">plain</p><p id="styled" style="color: red">styled</p><p id="semi" style="color: red;">semi</p></div>
<ul id="list"><li class="i">one</li><li class="i">two</li></ul>
<div id="box"><span>in box</span><b>1</b> mid <i>2</i></div>
<form id="login"><a href="/a">A</a><input name="u"><input name="p"></form>
</body>
notes: `},
		{name: "edits-on-removed", objs: []spec.Object{
			editObject("gone", "#box", attribute(spec.AttrRemove)),
			editObject("before", "#box", insertAt("before"), insertAt("after"),
				attribute(spec.AttrReplace, "html", fragments), insertAt("prepend"), attribute(spec.AttrHide)),
			editObject("moved", "#plain", attribute(spec.AttrRelocate, "target", "#box", "position", "before")),
		}, want: `<body>
<div id="top"><p id="plain">plain</p><p id="styled" style="color: red">styled</p><p id="semi" style="color: red;">semi</p></div>
<ul id="list"><li class="i">one</li><li class="i">two</li></ul>

<form id="login"><a href="/a">A</a><input name="u"><input name="p"></form>
</body>
notes: object "moved": relocate target "#box" not found`},
		{name: "relocate", objs: []spec.Object{
			editObject("plain", "#plain", attribute(spec.AttrRelocate, "target", "#list, #box", "position", "prepend")),
			editObject("styled", "#styled", attribute(spec.AttrRelocate, "target", "#box", "position", "after")),
			editObject("semi", "#semi", attribute(spec.AttrRelocate, "target", ".i", "position", "before")),
			editObject("box", "#box", attribute(spec.AttrRelocate, "target", "#top")),
			editObject("bad", ".i", attribute(spec.AttrRelocate, "target", "li[")),
			editObject("ghost", "#list", attribute(spec.AttrRelocate, "target", "#ghost")),
		}, want: `<body>
<div id="top"><div id="box"><span>in box</span></div></div>
<ul id="list"><p id="plain">plain</p><p id="semi" style="color: red;">semi</p><li class="i">one</li><li class="i">two</li></ul>
<p id="styled" style="color: red">styled</p>
<form id="login"><a href="/a">A</a><input name="u"><input name="p"></form>
</body>
notes: object "bad": relocate target "li[" not found; object "bad": relocate target "li[" not found; object "ghost": relocate target "#ghost" not found`},
		{name: "copy-within", objs: []spec.Object{
			editObject("login", "#login", attribute(spec.AttrSubpage, "title", "Log in")),
			editObject("top", "#top",
				attribute(spec.AttrCopyTo, "subpage", "login", "set-attr", "data-x", "set-value", "1", "within", "p:nth-child(2), p, #semi"),
				attribute(spec.AttrCopyTo, "subpage", "login", "position", "bottom", "set-attr", "data-y", "set-value", "2", "within", "p["),
				attribute(spec.AttrCopyTo, "subpage", "login", "set-attr", "data-z", "set-value", "3", "within", "#ghost")),
			editObject("list", "#list",
				attribute(spec.AttrCopyTo, "subpage", "login", "position", "bottom", "set-attr", "class", "set-value", "c")),
		}, want: `<body>
<div id="top"><p id="plain">plain</p><p id="styled" style="color: red">styled</p><p id="semi" style="color: red;">semi</p></div>
<ul id="list"><li class="i">one</li><li class="i">two</li></ul>
<div id="box"><span>in box</span></div>

</body>
[login] <body><div id="top"><p id="plain">plain</p><p id="styled" style="color: red">styled</p><p id="semi" style="color: red;">semi</p></div><div id="top"><p id="plain" data-x="1">plain</p><p id="styled" style="color: red" data-x="1">styled</p><p id="semi" style="color: red;" data-x="1">semi</p></div><div id="top"><p id="plain">plain</p><p id="styled" style="color: red">styled</p><p id="semi" style="color: red;">semi</p></div><ul id="list"><li class="c">one</li><li class="i">two</li></ul><form id="login"><a href="/a">A</a><input name="u"><input name="p"></form></body>
notes: `},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := editOutput(t, c.objs); got != c.want {
				t.Fatalf("got\n%s\nwant\n%s", got, c.want)
			}
		})
	}
}
