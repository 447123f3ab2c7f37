package attr

import (
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"

	"msite/internal/dom"
	"msite/internal/html"
	"msite/internal/origin"
)

// resolveByNetURL is AbsolutizeURLs's result for one value as net/url
// gives it: what every value resolved to before plain paths were written
// by hand, and what every value plainPath rejects still resolves to.
func resolveByNetURL(base *url.URL, val string, skipPrefixes ...string) (string, bool) {
	if !needsAbsolutizing(val, skipPrefixes) {
		return val, false
	}
	abs, err := base.Parse(val)
	if err != nil {
		return val, false
	}
	return abs.String(), true
}

// absolutizeOne runs AbsolutizeURLs over one <a href=val> and returns
// the href it leaves and the rewrite count.
func absolutizeOne(base, val string, skipPrefixes ...string) (string, int) {
	doc := dom.NewElement("body")
	a := dom.NewElement("a")
	a.SetAttr("href", val)
	doc.AppendChild(a)
	n := AbsolutizeURLs(doc, base, skipPrefixes...)
	return a.AttrOr("href", ""), n
}

// TestPlainPaths: the shapes plainPath takes are the origin-relative
// paths net/url resolves to the base's scheme and authority with the
// value appended; every other shape falls back to net/url. Either way
// AbsolutizeURLs writes what net/url gives.
func TestPlainPaths(t *testing.T) {
	for _, tc := range []struct {
		val   string
		plain bool
	}{
		{"/", true},
		{"/member.php?u=47", true},
		{"/clientscript/js_3.js", true},
		{"/forumdisplay.php?f=2&order=desc", true},
		{"/a/.b/..c/d.", true},
		{"/a//b", true},
		{"/$&+,:;=@~-_", true},
		{"/a?", true},
		{"/a??b", true},
		{`/a?q="<x>"{|}^` + "`", true},
		{"/a?b/../c", true},
		// Dot segments.
		{"/.", false},
		{"/..", false},
		{"/a/./b", false},
		{"/a/../b", false},
		{"/a/.", false},
		{"/a/..", false},
		{"/./a?x", false},
		// Escapes, fragments, authorities and backslashes.
		{"/a%20b", false},
		{"/a?q=%41", false},
		{"/a#top", false},
		{"/a?b#c", false},
		{"//cdn.test/x.js", false},
		{"///x", false},
		{`/a\b`, false},
		{`/a?b\c`, false},
		// Bytes net/url escapes in a path, non-ASCII, spaces and controls.
		{`/a"b`, false},
		{"/a<b>", false},
		{"/a|b", false},
		{"/a{b}", false},
		{"/a^b", false},
		{"/a`b", false},
		{"/a'b", false},
		{"/a!b", false},
		{"/a*b", false},
		{"/a(b)", false},
		{"/a[b]", false},
		{"/café", false},
		{"/a?café", false},
		{"/\xff", false},
		{"/a b", false},
		{"/a?b c", false},
		{"/a\tb", false},
		{"/a\x00", false},
		{"/a\x7f", false},
		// Relative paths and queries without a leading '/'.
		{"thread.php?t=1", false},
		{"./a", false},
		{"../a", false},
		{"a/b", false},
		{"?q=1", false},
		{"", false},
	} {
		if got := plainPath(tc.val); got != tc.plain {
			t.Errorf("plainPath(%q) = %v, want %v", tc.val, got, tc.plain)
		}
		for _, rawBase := range []string{"http://origin.test/index.php", "HTTPS://u:p@Origin.test:8080/a/b?x#y", "http://[::1]/"} {
			base, _ := url.Parse(rawBase)
			want, rewrites := resolveByNetURL(base, tc.val)
			if got, n := absolutizeOne(rawBase, tc.val); got != want || (n == 1) != rewrites {
				t.Errorf("%q against %q: %q (%d rewrites), net/url %q (%v)", tc.val, rawBase, got, n, want, rewrites)
			}
		}
	}
}

// FuzzAbsolutizeURLs: against any base net/url accepts with a host, a
// value plainPath takes resolves to exactly base.Parse(val).String(), and
// AbsolutizeURLs rewrites every value to what net/url gives.
func FuzzAbsolutizeURLs(f *testing.F) {
	for _, seed := range [][2]string{
		{"http://origin.test/", "/member.php?u=47"},
		{"http://origin.test/index.php", "/a/../b"},
		{"https://u:p@Origin.test:8080/a/b?x#y", "/a//b?c=%41"},
		{"http://[fe80::1%25en0]:81/", "/a:b;c=d@e"},
		{"HTTP://origin.test", "//cdn.test/x"},
		{"http://origin.test/", "/café?q=\"<>\""},
		{"http://origin.test/", "JavaScript:void(0)"},
		{"http://origin.test/", "/subpage/login"},
	} {
		f.Add(seed[0], seed[1])
	}
	f.Fuzz(func(t *testing.T, rawBase, val string) {
		base, err := url.Parse(rawBase)
		if err != nil || base.Host == "" {
			t.Skip("AbsolutizeURLs rewrites nothing against this base")
		}
		if plainPath(val) {
			root, err := base.Parse("/")
			if err != nil {
				t.Fatalf("%q does not resolve \"/\": %v", rawBase, err)
			}
			abs, err := base.Parse(val)
			if err != nil {
				t.Fatalf("plain path %q does not parse against %q: %v", val, rawBase, err)
			}
			if got, want := root.String()+val[1:], abs.String(); got != want {
				t.Fatalf("plain path %q against %q: %q, net/url %q", val, rawBase, got, want)
			}
		}
		want, rewrites := resolveByNetURL(base, val, "/subpage/")
		if got, n := absolutizeOne(rawBase, val, "/subpage/"); got != want || (n == 1) != rewrites {
			t.Fatalf("%q against %q: %q (%d rewrites), net/url %q (%v)", val, rawBase, got, n, want, rewrites)
		}
	})
}

// TestAbsolutizeAllocationBudget: re-anchoring the forum entry page's
// links costs a few objects a document, not one a link. Each link took
// net/url's parse, resolve and write, 889 objects for the page's 169
// links, until the plain paths were written into one string by hand.
func TestAbsolutizeAllocationBudget(t *testing.T) {
	const maxAllocs = 12
	rec := httptest.NewRecorder()
	origin.NewForum(origin.DefaultForumConfig()).Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET / = %d", rec.Code)
	}
	const runs = 10
	docs := make([]*dom.Node, runs+1) // AllocsPerRun calls once more to warm up
	for i := range docs {
		docs[i] = html.Tidy(rec.Body.String())
	}
	base, skip := "http://forum.test/", []string{"/subpage/", "/asset/"}
	links := 0
	allocs := testing.AllocsPerRun(runs, func() {
		links = AbsolutizeURLs(docs[0], base, skip...)
		docs = docs[1:]
	})
	t.Logf("| forum entry page | links rewritten | allocations | budget |")
	t.Logf("|---|---|---|---|")
	t.Logf("| before: net/url for every link | 169 | 889 | |")
	t.Logf("| now: plain paths written by hand | %d | %.0f | %d |", links, allocs, maxAllocs)
	if links < 50 {
		t.Fatalf("the forum entry page had %d links to rewrite; the budget means nothing below 50", links)
	}
	if allocs > maxAllocs {
		t.Errorf("re-anchoring %d links allocated %.0f objects; budget %d a document", links, allocs, maxAllocs)
	}
}
