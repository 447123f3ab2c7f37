package fetch

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"strings"
	"testing"
	"time"

	"msite/internal/html"
	"msite/internal/obs"
	"msite/internal/session"
)

func newSession(t *testing.T) *session.Session {
	t.Helper()
	m, err := session.NewManager(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s, err := m.Create()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestGetBasic(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if got := r.Header.Get("User-Agent"); got != "m.Site-proxy/1.0" {
			t.Errorf("ua = %q", got)
		}
		w.Header().Set("Content-Type", "text/html")
		_, _ = w.Write([]byte("<html><body>hi</body></html>"))
	}))
	defer srv.Close()

	f := New(newSession(t))
	page, err := f.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	if page.Status != 200 || !strings.Contains(string(page.Body), "hi") {
		t.Fatalf("page = %+v", page)
	}
	if page.Doc().Body() == nil {
		t.Fatal("doc parse failed")
	}
}

func TestGetCustomUserAgent(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write([]byte(r.Header.Get("User-Agent")))
	}))
	defer srv.Close()
	f := New(nil, WithUserAgent("custom/2"))
	page, err := f.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	if string(page.Body) != "custom/2" {
		t.Fatalf("ua = %q", page.Body)
	}
}

func TestCookieJarPersistsAcrossRequests(t *testing.T) {
	hits := 0
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits++
		if hits == 1 {
			http.SetCookie(w, &http.Cookie{Name: "bbsessionhash", Value: "abc123"})
			_, _ = w.Write([]byte("first"))
			return
		}
		c, err := r.Cookie("bbsessionhash")
		if err != nil || c.Value != "abc123" {
			t.Errorf("cookie not replayed: %v", err)
		}
		_, _ = w.Write([]byte("second"))
	}))
	defer srv.Close()

	f := New(newSession(t))
	if _, err := f.Get(srv.URL); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Get(srv.URL); err != nil {
		t.Fatal(err)
	}
	if hits != 2 {
		t.Fatalf("hits = %d", hits)
	}
}

func TestSessionsIsolated(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if _, err := r.Cookie("id"); err != nil {
			http.SetCookie(w, &http.Cookie{Name: "id", Value: r.URL.Query().Get("u")})
		}
		c, _ := r.Cookie("id")
		if c != nil {
			_, _ = w.Write([]byte(c.Value))
		} else {
			_, _ = w.Write([]byte("none"))
		}
	}))
	defer srv.Close()

	fa := New(newSession(t))
	fb := New(newSession(t))
	_, _ = fa.Get(srv.URL + "/?u=alice")
	_, _ = fb.Get(srv.URL + "/?u=bob")
	pa, _ := fa.Get(srv.URL + "/")
	pb, _ := fb.Get(srv.URL + "/")
	if string(pa.Body) != "alice" || string(pb.Body) != "bob" {
		t.Fatalf("cross-session cookies: %q %q", pa.Body, pb.Body)
	}
}

func TestAuthRequired(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		user, pass, ok := r.BasicAuth()
		if !ok || user != "admin" || pass != "secret" {
			w.Header().Set("WWW-Authenticate", `Basic realm="private"`)
			w.WriteHeader(http.StatusUnauthorized)
			return
		}
		_, _ = w.Write([]byte("private content"))
	}))
	defer srv.Close()

	sess := newSession(t)
	f := New(sess)
	_, err := f.Get(srv.URL)
	var authErr *AuthRequiredError
	if !errors.As(err, &authErr) || authErr.Realm != "private" {
		t.Fatalf("err = %v", err)
	}

	u, _ := url.Parse(srv.URL)
	sess.SetAuth(u.Host, session.Credentials{User: "admin", Pass: "secret"})
	page, err := f.Get(srv.URL)
	if err != nil || string(page.Body) != "private content" {
		t.Fatalf("authed fetch = %v %q", err, page.Body)
	}
}

func TestStatusError(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		http.Error(w, "gone", http.StatusNotFound)
	}))
	defer srv.Close()
	_, err := New(nil).Get(srv.URL)
	var statusErr *StatusError
	if !errors.As(err, &statusErr) || statusErr.Status != 404 {
		t.Fatalf("err = %v", err)
	}
}

// TestStatusErrorSaysItOnce: a status failure's message names the URL
// and the status once each, and errors.As still finds both error types.
func TestStatusErrorSaysItOnce(t *testing.T) {
	srv := httptest.NewServer(http.NotFoundHandler())
	defer srv.Close()
	url := srv.URL + "/nosuch"
	_, err := New(nil).Get(url)
	var fe *Error
	var se *StatusError
	if !errors.As(err, &fe) || !errors.As(err, &se) {
		t.Fatalf("err = %v; want both *Error and *StatusError", err)
	}
	msg := err.Error()
	if strings.Count(msg, url) != 1 || strings.Count(msg, "404") != 1 {
		t.Fatalf("message %q; want the URL and the status once each", msg)
	}
}

func TestPostForm(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if err := r.ParseForm(); err != nil {
			t.Error(err)
		}
		_, _ = w.Write([]byte(r.FormValue("username")))
	}))
	defer srv.Close()
	page, err := New(newSession(t)).PostForm(srv.URL, url.Values{"username": {"woodworker"}})
	if err != nil || string(page.Body) != "woodworker" {
		t.Fatalf("post = %v %q", err, page.Body)
	}
}

func TestSubresources(t *testing.T) {
	doc := html.Parse(`
	<html><head>
		<link rel="stylesheet" href="/css/main.css">
		<link rel="alternate" href="/feed.xml">
		<script src="/js/a.js"></script>
		<script>inline();</script>
	</head><body>
		<img src="logo.png">
		<img src="logo.png">
		<img src="data:image/gif;base64,R0lGOD">
		<img src="">
		<input type="image" src="btn.png">
		<iframe src="/frame.html"></iframe>
	</body></html>`)
	refs := Subresources(doc, "http://example.com/forum/")
	want := []string{
		"http://example.com/css/main.css",
		"http://example.com/js/a.js",
		"http://example.com/forum/logo.png",
		"http://example.com/forum/btn.png",
		"http://example.com/frame.html",
	}
	if len(refs) != len(want) {
		t.Fatalf("refs = %v", refs)
	}
	for i, w := range want {
		if refs[i] != w {
			t.Fatalf("refs[%d] = %q, want %q", i, refs[i], w)
		}
	}
}

func TestGetWithResources(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("/", func(w http.ResponseWriter, _ *http.Request) {
		_, _ = w.Write([]byte(`<html><body><img src="/a.png"><img src="/missing.png"><script src="/s.js"></script></body></html>`))
	})
	mux.HandleFunc("/a.png", func(w http.ResponseWriter, _ *http.Request) {
		_, _ = w.Write(make([]byte, 1000))
	})
	mux.HandleFunc("/s.js", func(w http.ResponseWriter, _ *http.Request) {
		_, _ = w.Write(make([]byte, 500))
	})
	mux.HandleFunc("/missing.png", func(w http.ResponseWriter, _ *http.Request) {
		http.NotFound(w, nil)
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	load, err := New(newSession(t)).GetWithResources(srv.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	if load.Requests != 4 {
		t.Fatalf("requests = %d", load.Requests)
	}
	if load.Failures != 1 {
		t.Fatalf("failures = %d", load.Failures)
	}
	if load.TotalBytes < 1500+len(load.Page.Body) {
		t.Fatalf("total bytes = %d", load.TotalBytes)
	}
}

func TestSessionAccessor(t *testing.T) {
	if _, err := New(nil).Session(); !errors.Is(err, ErrNoSession) {
		t.Fatalf("err = %v", err)
	}
	s := newSession(t)
	got, err := New(s).Session()
	if err != nil || got != s {
		t.Fatal("session accessor wrong")
	}
}

func TestInlineStylesheets(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("/", func(w http.ResponseWriter, _ *http.Request) {
		_, _ = w.Write([]byte(`<html><head>
<link rel="stylesheet" href="/main.css">
<link rel="stylesheet" href="/missing.css" media="print">
<link rel="icon" href="/favicon.ico">
</head><body>x</body></html>`))
	})
	mux.HandleFunc("/main.css", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/css")
		_, _ = w.Write([]byte(".tborder { color: red }"))
	})
	mux.HandleFunc("/missing.css", func(w http.ResponseWriter, _ *http.Request) {
		http.NotFound(w, nil)
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	f := New(nil)
	page, err := f.Get(srv.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	doc := page.Doc()
	n, err := f.InlineStylesheets(doc, page.URL)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("inlined = %d", n)
	}
	out := html.Render(doc)
	if !strings.Contains(out, ".tborder { color: red }") {
		t.Fatalf("sheet not inlined: %s", out)
	}
	if !strings.Contains(out, `data-msite="inlined-css"`) {
		t.Fatal("marker missing")
	}
	// The failed sheet keeps its link; the icon link is untouched.
	if !strings.Contains(out, "missing.css") || !strings.Contains(out, "favicon.ico") {
		t.Fatal("non-inlinable links must remain")
	}
	if strings.Contains(out, `href="/main.css"`) {
		t.Fatal("inlined link should be removed")
	}
}

func TestInlineStylesheetsBadBase(t *testing.T) {
	doc := html.Parse(`<link rel="stylesheet" href="/x.css">`)
	if _, err := New(nil).InlineStylesheets(doc, "://bad"); err == nil {
		t.Fatal("expected error")
	}
}

// chunkedBody hands a body out at most 4 KB a read, as net/http's chunked
// reader does through its buffer.
type chunkedBody struct{ b []byte }

func (c *chunkedBody) Read(p []byte) (int, error) {
	if len(c.b) == 0 {
		return 0, io.EOF
	}
	n := copy(p[:min(len(p), 4<<10)], c.b)
	c.b = c.b[n:]
	return n, nil
}

// TestReadBodyAllocation: reading a 1 MiB chunked body, with no
// Content-Length, allocates at most 2.5 times its size (io.ReadAll's
// regrowth allocated 4.4 times the bodies of a cold build); one whose
// Content-Length is known allocates one buffer of its size.
func TestReadBodyAllocation(t *testing.T) {
	body := make([]byte, 1<<20)
	rand.New(rand.NewSource(1)).Read(body)
	for _, tc := range []struct {
		name  string
		size  int64
		ratio float64
	}{
		{"chunked", -1, 2.5},
		{"content-length", int64(len(body)), 1.05},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		got, err := readBody("http://origin.test/big", "origin.test", &chunkedBody{body}, tc.size)
		runtime.ReadMemStats(&after)
		if err != nil || !bytes.Equal(got, body) {
			t.Fatalf("%s: read %d bytes, err %v; want the %d-byte body", tc.name, len(got), err, len(body))
		}
		ratio := float64(after.TotalAlloc-before.TotalAlloc) / float64(len(body))
		t.Logf("%s: %.2f times the body", tc.name, ratio)
		if ratio > tc.ratio {
			t.Errorf("%s: reading a %d-byte body allocated %.2f times its size, budget %.2f", tc.name, len(body), ratio, tc.ratio)
		}
	}
}

// TestRecordOutcomes: a successful origin request is recorded, metrics
// on, without an allocation (the errors.As targets that label a failure
// escape, and were made for every request), and each failure is still
// counted under its outcome.
func TestRecordOutcomes(t *testing.T) {
	reg := obs.NewRegistry()
	f := New(nil, WithObs(reg))
	start := time.Now()
	f.record(start, nil) // registers the ok series
	if n := testing.AllocsPerRun(100, func() { f.record(start, nil) }); n != 0 {
		t.Errorf("recording a successful request made %v allocations, want 0", n)
	}
	for _, tc := range []struct {
		err  error
		want string
	}{
		{nil, "ok"},
		{&AuthRequiredError{URL: "http://origin.test/"}, "auth"},
		{&Error{Kind: KindStatus, Status: 503}, "status_503"},
		{&Error{Kind: KindRefused}, "refused"},
		{&StatusError{Status: 404}, "status_404"},
		{fmt.Errorf("get: %w", &Error{Kind: KindTimeout}), "timeout"},
		{errors.New("boom"), "error"},
	} {
		c := reg.Counter("msite_fetch_requests_total", "outcome", tc.want)
		before := c.Value()
		f.record(start, tc.err)
		if c.Value() != before+1 {
			t.Errorf("record(%v) did not count outcome %q", tc.err, tc.want)
		}
	}
}
