package session

import (
	"bytes"
	"errors"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"msite/internal/obs"
)

func newTestManager(t *testing.T) (*Manager, *clock) {
	t.Helper()
	clk := &clock{now: time.Unix(1_700_000_000, 0)}
	m, err := NewManagerWithClock(t.TempDir(), time.Hour, clk.Now)
	if err != nil {
		t.Fatal(err)
	}
	return m, clk
}

type clock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *clock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *clock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
}

func TestCreateAndGet(t *testing.T) {
	m, _ := newTestManager(t)
	s, err := m.Create()
	if err != nil {
		t.Fatal(err)
	}
	if len(s.ID) != 32 {
		t.Fatalf("id = %q", s.ID)
	}
	if fi, err := os.Stat(s.Dir); err != nil || !fi.IsDir() {
		t.Fatalf("session dir missing: %v", err)
	}
	got, err := m.Get(s.ID)
	if err != nil || got != s {
		t.Fatalf("get = %v, %v", got, err)
	}
	if _, err := m.Get("nope"); err != ErrNotFound {
		t.Fatalf("missing = %v", err)
	}
}

func TestUniqueIDs(t *testing.T) {
	m, _ := newTestManager(t)
	seen := map[string]bool{}
	for i := 0; i < 50; i++ {
		s, err := m.Create()
		if err != nil {
			t.Fatal(err)
		}
		if seen[s.ID] {
			t.Fatal("duplicate session id")
		}
		seen[s.ID] = true
	}
}

func TestSessionDirProtected(t *testing.T) {
	m, _ := newTestManager(t)
	s, _ := m.Create()
	fi, err := os.Stat(s.Dir)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Mode().Perm() != 0o700 {
		t.Fatalf("perm = %v", fi.Mode().Perm())
	}
}

func TestExpiryOnGet(t *testing.T) {
	m, clk := newTestManager(t)
	s, _ := m.Create()
	clk.Advance(2 * time.Hour)
	if _, err := m.Get(s.ID); err != ErrNotFound {
		t.Fatalf("expired get = %v", err)
	}
	if _, err := os.Stat(s.Dir); !os.IsNotExist(err) {
		t.Fatal("expired session dir not removed")
	}
}

func TestTouchExtendsLife(t *testing.T) {
	m, clk := newTestManager(t)
	s, _ := m.Create()
	for i := 0; i < 3; i++ {
		clk.Advance(50 * time.Minute)
		if _, err := m.Get(s.ID); err != nil {
			t.Fatalf("refreshed session expired at step %d", i)
		}
	}
}

func TestGC(t *testing.T) {
	m, clk := newTestManager(t)
	s1, _ := m.Create()
	clk.Advance(30 * time.Minute)
	s2, _ := m.Create()
	clk.Advance(45 * time.Minute) // s1 idle 75min > 60, s2 idle 45
	if n := m.GC(); n != 1 {
		t.Fatalf("gc = %d", n)
	}
	if _, err := m.Get(s2.ID); err != nil {
		t.Fatal("live session collected")
	}
	if _, err := os.Stat(s1.Dir); !os.IsNotExist(err) {
		t.Fatal("collected dir remains")
	}
	if m.Len() != 1 {
		t.Fatalf("len = %d", m.Len())
	}
}

func TestDelete(t *testing.T) {
	m, _ := newTestManager(t)
	s, _ := m.Create()
	if err := m.Delete(s.ID); err != nil {
		t.Fatal(err)
	}
	if err := m.Delete(s.ID); err != ErrNotFound {
		t.Fatalf("double delete = %v", err)
	}
}

func TestAuthStorage(t *testing.T) {
	m, _ := newTestManager(t)
	s, _ := m.Create()
	if _, ok := s.Auth("example.com"); ok {
		t.Fatal("unexpected creds")
	}
	s.SetAuth("example.com", Credentials{User: "u", Pass: "p"})
	c, ok := s.Auth("example.com")
	if !ok || c.User != "u" || c.Pass != "p" {
		t.Fatalf("creds = %+v, %v", c, ok)
	}
	// Separate sessions do not share credentials (§3.3: "Authentication
	// information is stored and maintained separately across users").
	s2, _ := m.Create()
	if _, ok := s2.Auth("example.com"); ok {
		t.Fatal("creds leaked across sessions")
	}
}

func TestValues(t *testing.T) {
	m, _ := newTestManager(t)
	s, _ := m.Create()
	s.Set("entry", "/forum")
	if v, ok := s.Get("entry"); !ok || v != "/forum" {
		t.Fatalf("value = %q %v", v, ok)
	}
	if _, ok := s.Get("missing"); ok {
		t.Fatal("missing value present")
	}
}

func TestClearCookies(t *testing.T) {
	m, _ := newTestManager(t)
	s, _ := m.Create()
	old := s.Jar
	if err := s.ClearCookies(); err != nil {
		t.Fatal(err)
	}
	if s.Jar == old {
		t.Fatal("jar not replaced")
	}
}

func TestEnsureIssuesCookie(t *testing.T) {
	m, _ := newTestManager(t)
	w := httptest.NewRecorder()
	r := httptest.NewRequest(http.MethodGet, "/", nil)
	s, err := m.Ensure(w, r)
	if err != nil {
		t.Fatal(err)
	}
	cookies := w.Result().Cookies()
	if len(cookies) != 1 || cookies[0].Name != CookieName || cookies[0].Value != s.ID {
		t.Fatalf("cookies = %v", cookies)
	}
	if !cookies[0].HttpOnly {
		t.Fatal("cookie should be HttpOnly")
	}

	// Second request with the cookie reuses the session.
	r2 := httptest.NewRequest(http.MethodGet, "/", nil)
	r2.AddCookie(cookies[0])
	w2 := httptest.NewRecorder()
	s2, err := m.Ensure(w2, r2)
	if err != nil || s2 != s {
		t.Fatalf("reuse failed: %v %v", s2, err)
	}
	if len(w2.Result().Cookies()) != 0 {
		t.Fatal("no new cookie should be set on reuse")
	}
}

func TestEnsureReplacesStaleCookie(t *testing.T) {
	m, _ := newTestManager(t)
	r := httptest.NewRequest(http.MethodGet, "/", nil)
	r.AddCookie(&http.Cookie{Name: CookieName, Value: "stale"})
	w := httptest.NewRecorder()
	s, err := m.Ensure(w, r)
	if err != nil || s == nil {
		t.Fatalf("ensure = %v %v", s, err)
	}
	if len(w.Result().Cookies()) != 1 {
		t.Fatal("new cookie not issued for stale id")
	}
}

func TestNewManagerValidation(t *testing.T) {
	if _, err := NewManager(""); err == nil {
		t.Fatal("empty root should fail")
	}
}

func TestConcurrentSessions(t *testing.T) {
	m, _ := newTestManager(t)
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s, err := m.Create()
			if err != nil {
				t.Error(err)
				return
			}
			for j := 0; j < 20; j++ {
				if _, err := m.Get(s.ID); err != nil {
					t.Error(err)
				}
				s.Set("k", "v")
				s.SetAuth("h", Credentials{User: "u"})
			}
		}()
	}
	wg.Wait()
	if m.Len() != 16 {
		t.Fatalf("len = %d", m.Len())
	}
}

// TestCleanupErrorsLoggedAndCounted: a failing session-directory
// teardown must not be silently swallowed — it is logged, counted on the
// manager, and surfaced as msite_session_cleanup_errors_total.
func TestCleanupErrorsLoggedAndCounted(t *testing.T) {
	orig := removeAll
	fail := true
	removeAll = func(path string) error {
		if fail {
			return errors.New("injected teardown failure")
		}
		return orig(path)
	}
	defer func() { removeAll = orig }()

	m, clk := newTestManager(t)
	reg := obs.NewRegistry()
	m.InstrumentObs(reg)
	var logs bytes.Buffer
	m.SetLogger(slog.New(slog.NewTextHandler(&logs, nil)))

	// Expiry path (Get).
	s, err := m.Create()
	if err != nil {
		t.Fatal(err)
	}
	clk.Advance(2 * time.Hour)
	if _, err := m.Get(s.ID); err != ErrNotFound {
		t.Fatalf("Get expired = %v", err)
	}
	// GC path.
	s2, err := m.Create()
	if err != nil {
		t.Fatal(err)
	}
	clk.Advance(2 * time.Hour)
	if n := m.GC(); n != 1 {
		t.Fatalf("GC removed %d sessions; want 1", n)
	}
	_ = s2

	if got := m.CleanupErrors(); got != 2 {
		t.Fatalf("CleanupErrors = %d; want 2", got)
	}
	c, ok := reg.Snapshot().Counter("msite_session_cleanup_errors_total")
	if !ok || c.Value != 2 {
		t.Fatalf("msite_session_cleanup_errors_total = %v (ok=%v); want 2", c, ok)
	}
	if !strings.Contains(logs.String(), "injected teardown failure") {
		t.Fatalf("teardown failure not logged: %q", logs.String())
	}

	// Successful teardowns stay uncounted.
	fail = false
	s3, err := m.Create()
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Delete(s3.ID); err != nil {
		t.Fatal(err)
	}
	if got := m.CleanupErrors(); got != 2 {
		t.Fatalf("CleanupErrors after clean delete = %d; want 2", got)
	}
}
