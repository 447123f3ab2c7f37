package session

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// FuzzSessionCookie holds FromRequest's own scan of the Cookie lines to
// what (*http.Request).Cookie(CookieName) finds: whether there is a
// session cookie, and its value. The input is the request's Cookie
// lines, one per line of the string.
func FuzzSessionCookie(f *testing.F) {
	for _, seed := range []string{
		"",
		"msite_session=abc",
		"other=1; msite_session=abc; more=2",
		"other=1\nmsite_session=abc",
		"msite_session=first\nmsite_session=second",
		"msite_session=first; msite_session=second",
		"msite_session=bad\\value; msite_session=good",
		`msite_session="quoted"`,
		`msite_session="half`,
		`msite_session=half"`,
		`msite_session="`,
		`msite_session=""`,
		`msite_session="in"side"`,
		"msite_session=a b",
		"msite_session=\x7f; msite_session=\x00",
		"msite_session=caf\xc3\xa9",
		"msite session=x; msite_session=y",
		"msite_session",
		"msite_session=",
		"=msite_session; ;; msite_session=x",
		"; ; ;",
		" \t msite_session \t = x \t ",
		"\tmsite_session=x\t;\tother=y",
		"msite_session= x",
		"MSITE_SESSION=x",
		"msite_session=a=b",
		"msite_session=x\r",
		"msite_sessionx=1; xmsite_session=2",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, lines string) {
		r := httptest.NewRequest(http.MethodGet, "/", nil)
		for _, line := range strings.Split(lines, "\n") {
			r.Header.Add("Cookie", line)
		}
		got, ok := sessionCookie(r.Header)
		c, err := r.Cookie(CookieName)
		if ok != (err == nil) {
			t.Fatalf("lines %q: found %v, net/http found %v", lines, ok, err == nil)
		}
		if ok && got != c.Value {
			t.Fatalf("lines %q: value %q, net/http %q", lines, got, c.Value)
		}
	})
}

// TestFromRequestAllocations: finding a live session by its cookie
// allocates nothing, where (*http.Request).Cookie made a slice and a
// *http.Cookie of each pair on the request's lines.
func TestFromRequestAllocations(t *testing.T) {
	m, err := NewManager(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s, err := m.Create()
	if err != nil {
		t.Fatal(err)
	}
	r := httptest.NewRequest(http.MethodGet, "/", nil)
	r.Header.Set("Cookie", "theme=dark; "+CookieName+"="+s.ID+"; lang=en")
	allocs := testing.AllocsPerRun(100, func() {
		if got, err := m.FromRequest(r); err != nil || got != s {
			t.Fatalf("FromRequest = %v, %v", got, err)
		}
	})
	if allocs != 0 {
		t.Fatalf("FromRequest allocates %v times, want 0", allocs)
	}
}
