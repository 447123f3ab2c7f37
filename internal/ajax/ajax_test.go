package ajax

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"msite/internal/cache"
	"msite/internal/fetch"
	"msite/internal/html"
	"msite/internal/spec"
)

func showpicActions(target string) []spec.Action {
	return []spec.Action{
		{ID: 1, Match: `do=showpic&id=(\d+)`, Target: target + "/site.php?do=showpic&id=$1", Extract: "#pic"},
		{ID: 2, Match: `listing\.php\?post=(\w+)`, Target: target + "/listing.php?post=$1", Extract: ".body"},
	}
}

func TestNewRewriterBadRegex(t *testing.T) {
	if _, err := NewRewriter([]spec.Action{{ID: 1, Match: "("}}, ""); err == nil {
		t.Fatal("expected error")
	}
}

func TestProxyCallEscapes(t *testing.T) {
	r, err := NewRewriter(nil, "")
	if err != nil {
		t.Fatal(err)
	}
	if got := r.ProxyCall(3, "a b&c"); got != "/ajax?action=3&p=a%20b%26c" {
		t.Fatalf("call = %q", got)
	}
}

func TestRewriteDocOnclick(t *testing.T) {
	// The paper's example: $("#picframe").load('site.php?do=showpic&id=1')
	doc := html.Parse(`<html><body>
		<a href="#" onclick="$('#picframe').load('site.php?do=showpic&id=7'); return false;">Show Picture</a>
		<a href="listing.php?post=abc123">Ad title</a>
		<a href="/unrelated">other</a>
	</body></html>`)
	r, err := NewRewriter(showpicActions("http://origin.test"), "/proxy")
	if err != nil {
		t.Fatal(err)
	}
	n := r.RewriteDoc(doc)
	if n != 2 {
		t.Fatalf("rewrites = %d", n)
	}
	out := html.Render(doc)
	// Serialized attributes escape & as &amp;.
	if !strings.Contains(out, "msiteLoad('/proxy?action=1&amp;p=7')") {
		t.Fatalf("onclick not rewritten: %s", out)
	}
	if !strings.Contains(out, `href="/proxy?action=2&amp;p=abc123"`) {
		t.Fatalf("href not rewritten: %s", out)
	}
	if !strings.Contains(out, `href="/unrelated"`) {
		t.Fatal("unrelated link touched")
	}
}

func TestInjectRuntimeIdempotent(t *testing.T) {
	doc := html.Parse(`<html><body><p>x</p></body></html>`)
	InjectRuntime(doc)
	InjectRuntime(doc)
	out := html.Render(doc)
	if strings.Count(out, `id="msite-pane"`) != 1 {
		t.Fatalf("pane count wrong: %s", out)
	}
	if strings.Count(out, "function msiteLoad") != 1 {
		t.Fatal("runtime injected twice")
	}
}

func TestInjectRuntimeNoBody(t *testing.T) {
	doc := html.Parse(``)
	InjectRuntime(doc) // must not panic
}

func originServer(t *testing.T, hits *int32) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("/site.php", func(w http.ResponseWriter, r *http.Request) {
		atomic.AddInt32(hits, 1)
		id := r.URL.Query().Get("id")
		_, _ = w.Write([]byte(`<html><body><div id="pic"><img src="/photos/` + id + `.jpg"></div><div>chrome</div></body></html>`))
	})
	mux.HandleFunc("/listing.php", func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write([]byte(`<html><body><div class="body">Classified text</div></body></html>`))
	})
	return httptest.NewServer(mux)
}

func TestDispatchExtractsFragment(t *testing.T) {
	var hits int32
	srv := originServer(t, &hits)
	defer srv.Close()

	d, err := NewDispatcher(showpicActions(srv.URL), nil)
	if err != nil {
		t.Fatal(err)
	}
	out, err := d.Dispatch(fetch.New(nil), 1, "42")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(out), "/photos/42.jpg") {
		t.Fatalf("fragment = %s", out)
	}
	if strings.Contains(string(out), "chrome") {
		t.Fatal("extract selector should drop surrounding content")
	}
}

func TestDispatchUnknownAction(t *testing.T) {
	d, err := NewDispatcher(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Dispatch(fetch.New(nil), 9, "x"); err == nil {
		t.Fatal("expected error")
	}
}

func TestDispatchCachesSharedFragments(t *testing.T) {
	var hits int32
	srv := originServer(t, &hits)
	defer srv.Close()

	actions := showpicActions(srv.URL)
	actions[0].CacheTTLSeconds = 60
	d, err := NewDispatcher(actions, cache.New())
	if err != nil {
		t.Fatal(err)
	}
	f := fetch.New(nil)
	for i := 0; i < 3; i++ {
		if _, err := d.Dispatch(f, 1, "7"); err != nil {
			t.Fatal(err)
		}
	}
	if got := atomic.LoadInt32(&hits); got != 1 {
		t.Fatalf("origin hits = %d, want 1 (cached)", got)
	}
	// Different param misses the cache.
	if _, err := d.Dispatch(f, 1, "8"); err != nil {
		t.Fatal(err)
	}
	if got := atomic.LoadInt32(&hits); got != 2 {
		t.Fatalf("origin hits = %d, want 2", got)
	}
}

func TestDispatchEmptyExtractReturnsBody(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		_, _ = w.Write([]byte(`<html><body><p>all</p><p>of it</p></body></html>`))
	}))
	defer srv.Close()
	d, err := NewDispatcher([]spec.Action{{ID: 1, Match: "x", Target: srv.URL}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	out, err := d.Dispatch(fetch.New(nil), 1, "")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(out), "<p>all</p><p>of it</p>") {
		t.Fatalf("body = %s", out)
	}
}

func TestDispatchExtractNoMatch(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		_, _ = w.Write([]byte(`<html><body><p>none</p></body></html>`))
	}))
	defer srv.Close()
	d, _ := NewDispatcher([]spec.Action{{ID: 1, Match: "x", Target: srv.URL, Extract: "#missing"}}, nil)
	if _, err := d.Dispatch(fetch.New(nil), 1, ""); err == nil {
		t.Fatal("expected error for unmatched extract")
	}
}

// TestExtractFragment: extract serves the outer HTML of the first node
// its selector list matches, in document order; a selector that matches
// nothing or does not parse is an error.
func TestExtractFragment(t *testing.T) {
	const page = `<html><body><div class="post" id="a"><p>first <b>post</b></p></div><p id="b">second</p></body></html>`
	cases := []struct {
		selector, want string
		wantErr        bool
	}{
		{selector: ".post", want: `<div class="post" id="a"><p>first <b>post</b></p></div>`},
		{selector: "#b, .post p", want: `<p>first <b>post</b></p>`},
		{selector: "#missing", wantErr: true},
		{selector: "p[", wantErr: true},
	}
	for _, c := range cases {
		got, err := extractFragment(page, c.selector)
		if (err != nil) != c.wantErr || got != c.want {
			t.Errorf("extractFragment(%q) = %q, %v; want %q (error %v)", c.selector, got, err, c.want, c.wantErr)
		}
	}
}

func TestSubstituteParam(t *testing.T) {
	if got := substituteParam("http://o/p?id=$1&x=$1", "a/b"); got != "http://o/p?id=a%2Fb&x=a%2Fb" {
		t.Fatalf("got %q", got)
	}
	if got := substituteParam("http://o/static", "ignored"); got != "http://o/static" {
		t.Fatalf("got %q", got)
	}
}
