package proxy

import (
	"net/http"
	"net/http/cookiejar"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"msite/internal/cache"
	"msite/internal/origin"
	"msite/internal/session"
	"msite/internal/spec"
)

func multiRig(t *testing.T) *testRig {
	t.Helper()
	forum := origin.NewForum(origin.DefaultForumConfig())
	forumSrv := httptest.NewServer(forum.Handler())
	t.Cleanup(forumSrv.Close)
	classifieds := origin.NewClassifieds(origin.DefaultClassifiedsConfig())
	classSrv := httptest.NewServer(classifieds.Handler())
	t.Cleanup(classSrv.Close)

	entrySpec := forumSpec(forumSrv.URL)
	entrySpec.Name = "forum"

	threadSpec := &spec.Spec{
		Name:   "classifieds",
		Origin: classSrv.URL + "/search/tools",
		Objects: []spec.Object{
			{Name: "listings", Selector: "#listings", Attributes: []spec.Attribute{
				{Type: spec.AttrAJAXify},
			}},
		},
		Actions: []spec.Action{
			{ID: 1, Match: `/post/(\w+)\.html`,
				Target: classSrv.URL + "/post/$1.html", Extract: "#postingbody"},
		},
	}

	sessions, err := session.NewManager(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMulti([]*spec.Spec{entrySpec, threadSpec}, Config{
		Sessions: sessions,
		Cache:    cache.New(),
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(m)
	t.Cleanup(srv.Close)
	jar, _ := cookiejar.New(nil)
	return &testRig{proxy: srv, client: &http.Client{Jar: jar}}
}

func TestMultiIndex(t *testing.T) {
	rig := multiRig(t)
	body, resp := rig.get(t, "/")
	if resp.StatusCode != 200 {
		t.Fatalf("index = %d", resp.StatusCode)
	}
	if !strings.Contains(body, `href="/p/forum/"`) || !strings.Contains(body, `href="/p/classifieds/"`) {
		t.Fatalf("index missing sites: %s", body)
	}
}

func TestMultiSitePrefixedURLs(t *testing.T) {
	rig := multiRig(t)
	body, resp := rig.get(t, "/p/forum/")
	if resp.StatusCode != 200 {
		t.Fatalf("forum entry = %d: %s", resp.StatusCode, body)
	}
	// Every generated URL carries the site prefix.
	if !strings.Contains(body, `/p/forum/asset/snapshot`) {
		t.Fatalf("snapshot URL unprefixed: %s", body)
	}
	if !strings.Contains(body, `/p/forum/subpage/login`) {
		t.Fatal("subpage URLs unprefixed")
	}

	sub, resp := rig.get(t, "/p/forum/subpage/forums")
	if resp.StatusCode != 200 {
		t.Fatalf("subpage = %d", resp.StatusCode)
	}
	if !strings.Contains(sub, `/p/forum/asset/forums.png`) {
		t.Fatalf("prerender asset unprefixed: %s", sub)
	}
	if _, resp := rig.get(t, "/p/forum/asset/forums.png"); resp.StatusCode != 200 {
		t.Fatal("prefixed asset not served")
	}
}

func TestMultiSecondSiteAJAX(t *testing.T) {
	rig := multiRig(t)
	body, resp := rig.get(t, "/p/classifieds/")
	if resp.StatusCode != 200 {
		t.Fatalf("classifieds = %d", resp.StatusCode)
	}
	// Rewritten calls target the site-prefixed ajax endpoint.
	if !strings.Contains(body, "/p/classifieds/ajax?action=1") {
		t.Fatalf("ajax endpoint unprefixed: %.300s", body)
	}
	frag, resp := rig.get(t, "/p/classifieds/ajax?action=1&p=t0003")
	if resp.StatusCode != 200 || !strings.Contains(frag, "postingbody") {
		t.Fatalf("ajax dispatch = %d: %s", resp.StatusCode, frag)
	}
}

func TestMultiSharedSession(t *testing.T) {
	rig := multiRig(t)
	rig.get(t, "/p/forum/")
	rig.get(t, "/p/classifieds/")
	// One cookie, one session across both sites.
	u, err := url.Parse(rig.proxy.URL)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(rig.client.Jar.Cookies(u)); got != 1 {
		t.Fatalf("cookies = %d, want 1 shared session", got)
	}
}

func TestMultiUnknownSite404(t *testing.T) {
	rig := multiRig(t)
	for _, path := range []string{"/p/ghost/", "/nope", "/p/"} {
		_, resp := rig.get(t, path)
		if resp.StatusCode != 404 {
			t.Fatalf("%s = %d", path, resp.StatusCode)
		}
	}
}

func TestNewMultiValidation(t *testing.T) {
	sessions, _ := session.NewManager(t.TempDir())
	base := &spec.Spec{Name: "a", Origin: "http://o/"}
	if _, err := NewMulti(nil, Config{Sessions: sessions, Cache: cache.New()}); err == nil {
		t.Fatal("empty specs accepted")
	}
	dup := &spec.Spec{Name: "a", Origin: "http://o2/"}
	if _, err := NewMulti([]*spec.Spec{base, dup}, Config{Sessions: sessions, Cache: cache.New()}); err == nil {
		t.Fatal("duplicate names accepted")
	}
	bad := &spec.Spec{Name: "a/b", Origin: "http://o/"}
	if _, err := NewMulti([]*spec.Spec{bad}, Config{Sessions: sessions, Cache: cache.New()}); err == nil {
		t.Fatal("unsafe name accepted")
	}
	m, err := NewMulti([]*spec.Spec{base}, Config{Sessions: sessions, Cache: cache.New()})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := m.Site("a"); !ok {
		t.Fatal("site lookup failed")
	}
	if len(m.Names()) != 1 {
		t.Fatal("names wrong")
	}
}
