package origin

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"msite/internal/css"
	"msite/internal/fetch"
	"msite/internal/html"
)

func forumServer(t *testing.T) (*Forum, *httptest.Server) {
	t.Helper()
	f := NewForum(DefaultForumConfig())
	srv := httptest.NewServer(f.Handler())
	t.Cleanup(srv.Close)
	return f, srv
}

func get(t *testing.T, url string) (string, int) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	var b strings.Builder
	buf := make([]byte, 32<<10)
	for {
		n, err := resp.Body.Read(buf)
		b.Write(buf[:n])
		if err != nil {
			break
		}
	}
	return b.String(), resp.StatusCode
}

func TestForumIndexStructure(t *testing.T) {
	_, srv := forumServer(t)
	body, status := get(t, srv.URL+"/")
	if status != 200 {
		t.Fatalf("status = %d", status)
	}
	// Fig. 4 structure: every named region present.
	doc := html.Tidy(body)
	for _, id := range []string{"logo", "banner", "navlinks", "loginform", "announce", "forums", "whosonline", "stats", "birthdays", "calendar", "footer"} {
		if doc.ElementByID(id) == nil {
			t.Errorf("entry page missing #%s", id)
		}
	}
	if rows, _ := css.Select(doc, "#forums tr"); len(rows) != 31 { // header + 30 forums
		t.Errorf("forum rows = %d", len(rows))
	}
	if scripts, _ := css.Select(doc, `script[src]`); len(scripts) != 12 {
		t.Errorf("external scripts = %d", len(scripts))
	}
	if !strings.Contains(body, "728") {
		t.Error("leaderboard banner missing")
	}
}

func TestForumIndexDeterministic(t *testing.T) {
	f1 := NewForum(DefaultForumConfig())
	f2 := NewForum(DefaultForumConfig())
	if string(f1.buildIndex(0)) != string(f2.buildIndex(0)) {
		t.Fatal("same seed should produce identical pages")
	}
	cfg := DefaultForumConfig()
	cfg.Seed = 99
	f3 := NewForum(cfg)
	if string(f1.buildIndex(0)) == string(f3.buildIndex(0)) {
		t.Fatal("different seed should differ")
	}
	if string(f1.buildIndex(0)) == string(f1.buildIndex(1)) {
		t.Fatal("a content churn (generation bump) should change the page")
	}
}

// TestEntryPageWeight reproduces the §4.2 in-text number: the entry page
// requires ≈224,477 bytes inclusive of all subresources, with ~12
// external scripts.
func TestEntryPageWeight(t *testing.T) {
	_, srv := forumServer(t)
	load, err := fetch.New(nil).GetWithResources(srv.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	if load.Failures > 0 {
		t.Fatalf("failures = %d", load.Failures)
	}
	// Paper: 224,477 bytes. Accept the right ballpark (±35%), which
	// preserves every downstream shape claim.
	if load.TotalBytes < 145_000 || load.TotalBytes > 305_000 {
		t.Fatalf("total bytes = %d, want ≈224 KB", load.TotalBytes)
	}
	if load.Requests < 20 {
		t.Fatalf("requests = %d", load.Requests)
	}
}

func TestForumDisplayAndThread(t *testing.T) {
	_, srv := forumServer(t)
	body, status := get(t, srv.URL+"/forumdisplay.php?f=2")
	if status != 200 || !strings.Contains(body, "General Woodworking") {
		t.Fatalf("forumdisplay: %d", status)
	}
	if _, status := get(t, srv.URL+"/forumdisplay.php?f=999"); status != 404 {
		t.Fatal("bad forum id should 404")
	}
	body, status = get(t, srv.URL+"/showthread.php?t=2000")
	if status != 200 || !strings.Contains(body, "do=showpic") {
		t.Fatal("thread page missing showpic AJAX link")
	}
}

func TestForumLoginFlow(t *testing.T) {
	_, srv := forumServer(t)
	// Unauthenticated private page is refused.
	if _, status := get(t, srv.URL+"/private.php"); status != 403 {
		t.Fatalf("private without cookie = %d", status)
	}
	// Login sets a cookie; carrying it grants access.
	resp, err := http.PostForm(srv.URL+"/login.php", map[string][]string{
		"username": {"oakhand"}, "password": {"sawdust"},
	})
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	var cookie *http.Cookie
	for _, c := range resp.Cookies() {
		if c.Name == "bbuserid" {
			cookie = c
		}
	}
	if cookie == nil {
		t.Fatal("no login cookie")
	}
	req, _ := http.NewRequest(http.MethodGet, srv.URL+"/private.php", nil)
	req.AddCookie(cookie)
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp2.Body.Close() }()
	if resp2.StatusCode != 200 {
		t.Fatalf("private with cookie = %d", resp2.StatusCode)
	}
	// Wrong password is refused.
	resp3, err := http.PostForm(srv.URL+"/login.php", map[string][]string{
		"username": {"oakhand"}, "password": {"wrong"},
	})
	if err != nil {
		t.Fatal(err)
	}
	_ = resp3.Body.Close()
	if resp3.StatusCode != 403 {
		t.Fatalf("bad login = %d", resp3.StatusCode)
	}
}

func TestForumShowpicEndpoint(t *testing.T) {
	_, srv := forumServer(t)
	body, status := get(t, srv.URL+"/site.php?do=showpic&id=77")
	if status != 200 {
		t.Fatalf("status = %d", status)
	}
	doc := html.Parse(body)
	if doc.ElementByID("pic") == nil {
		t.Fatal("no #pic fragment")
	}
	if !strings.Contains(body, "photo_77") {
		t.Fatal("id not reflected")
	}
	if _, status := get(t, srv.URL+"/site.php?do=other"); status != 404 {
		t.Fatal("unknown action should 404")
	}
	if _, status := get(t, srv.URL+"/site.php?do=showpic"); status != 400 {
		t.Fatal("missing id should 400")
	}
}

func TestForumSubresources(t *testing.T) {
	_, srv := forumServer(t)
	css, status := get(t, srv.URL+"/clientscript/vbulletin.css")
	if status != 200 || len(css) < 25_000 {
		t.Fatalf("css = %d bytes, status %d", len(css), status)
	}
	js, status := get(t, srv.URL+"/clientscript/js_3.js")
	if status != 200 || len(js) < 5_000 {
		t.Fatalf("js = %d bytes", len(js))
	}
	if _, status := get(t, srv.URL+"/clientscript/evil"); status != 404 {
		t.Fatal("unknown clientscript should 404")
	}
	img, status := get(t, srv.URL+"/ads/leaderboard.gif")
	if status != 200 || !strings.HasPrefix(img, "GIF89a") || len(img) < 30_000 {
		t.Fatalf("leaderboard = %d bytes", len(img))
	}
	icon, _ := get(t, srv.URL+"/images/forum_new_0.gif")
	if len(icon) >= len(img) {
		t.Fatal("icon should be smaller than leaderboard")
	}
}

func TestClassifiedsCategory(t *testing.T) {
	c := NewClassifieds(DefaultClassifiedsConfig())
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	body, status := get(t, srv.URL+"/search/tools")
	if status != 200 {
		t.Fatalf("status = %d", status)
	}
	doc := html.Tidy(body)
	rows, _ := css.Select(doc, "#listings .row a")
	if len(rows) != 100 {
		t.Fatalf("listings = %d", len(rows))
	}
	href := rows[0].AttrOr("href", "")
	if !strings.HasPrefix(href, "/post/") {
		t.Fatalf("href = %q", href)
	}
	if _, status := get(t, srv.URL+"/search/nonsense"); status != 404 {
		t.Fatal("unknown category should 404")
	}
	// Root defaults to tools.
	if _, status := get(t, srv.URL+"/"); status != 200 {
		t.Fatal("root category failed")
	}
}

func TestClassifiedsPost(t *testing.T) {
	c := NewClassifieds(DefaultClassifiedsConfig())
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	body, status := get(t, srv.URL+"/post/t0007.html")
	if status != 200 {
		t.Fatalf("status = %d", status)
	}
	doc := html.Tidy(body)
	if post, _ := css.Select(doc, "#postingbody"); len(post) != 1 {
		t.Fatal("no #postingbody")
	}
	body2, _ := get(t, srv.URL+"/post/t0007.html")
	if body != body2 {
		t.Fatal("post page not deterministic")
	}
	if _, status := get(t, srv.URL+"/post/../etc.html"); status != 404 {
		t.Fatal("traversal should 404")
	}
}
