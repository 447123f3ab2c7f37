// Package session implements m.Site's multi-session state management
// (§3.2): each mobile client is issued a session cookie and a protected
// per-user subdirectory (generated content no longer lands there: the
// proxy serves it from an in-memory Bundle the session references); the
// proxy keeps a per-user cookie jar so it can fetch
// authenticated origin content on the client's behalf; and HTTP
// credentials are stored and replayed per user. This is the piece that
// lets a single lightweight proxy replace one browser instance per
// client.
package session

import (
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/cookiejar"
	"net/textproto"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"msite/internal/obs"
)

// removeAll is swapped out by tests to exercise teardown failures.
var removeAll = os.RemoveAll

// CookieName is the proxy session cookie.
const CookieName = "msite_session"

// DefaultTTL is how long an idle session survives before GC.
const DefaultTTL = 2 * time.Hour

// ErrNotFound is returned for unknown or expired session IDs.
var ErrNotFound = errors.New("session: not found")

// Credentials is one stored HTTP authentication credential.
type Credentials struct {
	User string
	Pass string
}

// Session is one mobile client's server-side state.
type Session struct {
	// ID is the random session identifier carried in the cookie.
	ID string
	// Dir is the session's protected subdirectory, created and removed
	// with the session. Nothing in this repository writes beneath it.
	Dir string
	// Jar holds the origin cookies the proxy presents on the client's
	// behalf.
	Jar http.CookieJar

	mu       sync.Mutex
	auth     map[string]Credentials // keyed by host
	values   map[string]string
	lastSeen time.Time
	personal bool
}

// MarkPersonalized flags the session as carrying user-specific origin
// state (stored HTTP credentials, a marshaled form login). The proxy
// refuses to coalesce a personalized session's adaptation with other
// sessions' — their origin content may differ.
func (s *Session) MarkPersonalized() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.personal = true
}

// Personalized reports whether the session carries user-specific origin
// state.
func (s *Session) Personalized() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.personal
}

// SetAuth stores HTTP credentials for a host.
func (s *Session) SetAuth(host string, c Credentials) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.auth[host] = c
}

// Auth returns the stored credentials for a host.
func (s *Session) Auth(host string) (Credentials, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c, ok := s.auth[host]
	return c, ok
}

// Set stores an arbitrary session value.
func (s *Session) Set(key, val string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.values[key] = val
}

// Get returns an arbitrary session value.
func (s *Session) Get(key string) (string, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	v, ok := s.values[key]
	return v, ok
}

// CookieJar returns the session's current origin cookie jar under the
// session lock, so concurrent fetch workers never race a ClearCookies
// jar swap.
func (s *Session) CookieJar() http.CookieJar {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.Jar
}

// ClearCookies discards the session's origin cookie jar — the mechanism
// behind the paper's "replacement of a logout button with a get
// parameter, which allows cookies to be cleared on the proxy".
func (s *Session) ClearCookies() error {
	jar, err := cookiejar.New(nil)
	if err != nil {
		return fmt.Errorf("session: resetting cookie jar: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.Jar = jar
	return nil
}

// Manager creates, finds, and expires sessions. Safe for concurrent use.
type Manager struct {
	root  string
	ttl   time.Duration
	clock func() time.Time

	mu       sync.Mutex
	sessions map[string]*Session

	// onExpire callbacks run (outside the manager lock) whenever a
	// session leaves the manager — idle expiry in Get, explicit Delete,
	// or a GC pass. The proxy uses this to release per-session
	// adaptation state so long-running deployments don't leak it.
	expireMu sync.Mutex
	onExpire []func(id string)

	logger         atomic.Pointer[slog.Logger]
	cleanupErrs    atomic.Uint64
	obsCleanupErrs atomic.Pointer[obs.Counter]
}

// SetLogger directs session teardown diagnostics to l. Without one, the
// default slog logger is used.
func (m *Manager) SetLogger(l *slog.Logger) {
	if l != nil {
		m.logger.Store(l)
	}
}

// cleanup removes a session directory. Failures are not fatal — the
// session is already gone from the manager — but they leak disk, so they
// are logged and counted (msite_session_cleanup_errors_total) instead of
// being silently discarded.
func (m *Manager) cleanup(id, dir string) {
	err := removeAll(dir)
	if err == nil {
		return
	}
	m.cleanupErrs.Add(1)
	if c := m.obsCleanupErrs.Load(); c != nil {
		c.Inc()
	}
	l := m.logger.Load()
	if l == nil {
		l = slog.Default()
	}
	l.Error("session: removing session dir", "session", id, "dir", dir, "err", err)
}

// CleanupErrors returns how many session-directory teardowns have failed.
func (m *Manager) CleanupErrors() uint64 { return m.cleanupErrs.Load() }

// OnExpire registers fn to run with the session ID whenever a session is
// expired, deleted, or garbage-collected. Callbacks run outside the
// manager lock; they must not block for long.
func (m *Manager) OnExpire(fn func(id string)) {
	m.expireMu.Lock()
	defer m.expireMu.Unlock()
	m.onExpire = append(m.onExpire, fn)
}

// notifyExpired invokes every OnExpire callback for each removed id.
func (m *Manager) notifyExpired(ids ...string) {
	m.expireMu.Lock()
	fns := make([]func(string), len(m.onExpire))
	copy(fns, m.onExpire)
	m.expireMu.Unlock()
	for _, id := range ids {
		for _, fn := range fns {
			fn(id)
		}
	}
}

// NewManager returns a Manager writing session directories under root.
func NewManager(root string) (*Manager, error) {
	return NewManagerWithClock(root, DefaultTTL, time.Now)
}

// NewManagerWithClock allows a custom TTL and clock.
func NewManagerWithClock(root string, ttl time.Duration, clock func() time.Time) (*Manager, error) {
	if root == "" {
		return nil, errors.New("session: empty root directory")
	}
	if err := os.MkdirAll(root, 0o700); err != nil {
		return nil, fmt.Errorf("session: creating root: %w", err)
	}
	if ttl <= 0 {
		ttl = DefaultTTL
	}
	return &Manager{
		root:     root,
		ttl:      ttl,
		clock:    clock,
		sessions: make(map[string]*Session),
	}, nil
}

// InstrumentObs registers the manager's live-session gauge
// (msite_sessions_live) and the teardown-failure counter
// (msite_session_cleanup_errors_total) on reg. Idempotent; safe to call
// for managers shared across several proxies.
func (m *Manager) InstrumentObs(reg *obs.Registry) {
	reg.GaugeFunc("msite_sessions_live", func() float64 { return float64(m.Len()) })
	m.obsCleanupErrs.Store(reg.Counter("msite_session_cleanup_errors_total"))
}

// Create makes a fresh session with its own directory and cookie jar.
func (m *Manager) Create() (*Session, error) {
	id, err := newID()
	if err != nil {
		return nil, err
	}
	jar, err := cookiejar.New(nil)
	if err != nil {
		return nil, fmt.Errorf("session: creating cookie jar: %w", err)
	}
	dir := filepath.Join(m.root, id)
	if err := os.MkdirAll(dir, 0o700); err != nil {
		return nil, fmt.Errorf("session: creating session dir: %w", err)
	}
	s := &Session{
		ID:       id,
		Dir:      dir,
		Jar:      jar,
		auth:     make(map[string]Credentials),
		values:   make(map[string]string),
		lastSeen: m.clock(),
	}
	m.mu.Lock()
	m.sessions[id] = s
	m.mu.Unlock()
	return s, nil
}

// Get returns the live session for id, refreshing its idle timer.
func (m *Manager) Get(id string) (*Session, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	s, ok := m.sessions[id]
	if !ok {
		return nil, ErrNotFound
	}
	s.mu.Lock()
	expired := m.clock().Sub(s.lastSeen) > m.ttl
	if !expired {
		s.lastSeen = m.clock()
	}
	s.mu.Unlock()
	if expired {
		delete(m.sessions, id)
		m.mu.Unlock()
		m.cleanup(id, s.Dir)
		m.notifyExpired(id)
		m.mu.Lock() // re-acquire for the deferred unlock
		return nil, ErrNotFound
	}
	return s, nil
}

// Delete removes a session and its directory.
func (m *Manager) Delete(id string) error {
	m.mu.Lock()
	s, ok := m.sessions[id]
	delete(m.sessions, id)
	m.mu.Unlock()
	if !ok {
		return ErrNotFound
	}
	m.notifyExpired(id)
	if err := os.RemoveAll(s.Dir); err != nil {
		return fmt.Errorf("session: removing dir: %w", err)
	}
	return nil
}

// GC removes idle sessions and their directories, returning the count.
func (m *Manager) GC() int {
	m.mu.Lock()
	now := m.clock()
	var stale []*Session
	for id, s := range m.sessions {
		s.mu.Lock()
		idle := now.Sub(s.lastSeen) > m.ttl
		s.mu.Unlock()
		if idle {
			stale = append(stale, s)
			delete(m.sessions, id)
		}
	}
	m.mu.Unlock()
	for _, s := range stale {
		m.cleanup(s.ID, s.Dir)
		m.notifyExpired(s.ID)
	}
	return len(stale)
}

// Len returns the number of live sessions.
func (m *Manager) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.sessions)
}

// FromRequest returns the session identified by the request's cookie.
func (m *Manager) FromRequest(r *http.Request) (*Session, error) {
	id, ok := sessionCookie(r.Header)
	if !ok {
		return nil, ErrNotFound
	}
	return m.Get(id)
}

// sessionCookie returns the value of h's session cookie exactly as
// (*http.Request).Cookie(CookieName) finds it — the first pair of any
// Cookie line whose trimmed name is CookieName and whose value, its
// double quotes stripped, is all cookie-value bytes — without making a
// *http.Cookie of every pair the lines hold.
func sessionCookie(h http.Header) (string, bool) {
	for _, line := range h["Cookie"] {
		for line != "" {
			var part string
			part, line, _ = strings.Cut(line, ";")
			name, val, _ := strings.Cut(textproto.TrimString(part), "=")
			if textproto.TrimString(name) != CookieName {
				continue
			}
			if len(val) > 1 && val[0] == '"' && val[len(val)-1] == '"' {
				val = val[1 : len(val)-1]
			}
			if validCookieValue(val) {
				return val, true
			}
		}
	}
	return "", false
}

// validCookieValue reports whether every byte of v may stand in a cookie
// value as net/http parses one: printable ASCII, but not a double quote,
// a semicolon or a backslash.
func validCookieValue(v string) bool {
	for i := 0; i < len(v); i++ {
		if b := v[i]; b < 0x20 || b >= 0x7f || b == '"' || b == ';' || b == '\\' {
			return false
		}
	}
	return true
}

// Ensure returns the request's session, creating one (and setting the
// cookie on w) when the client has none — "Upon starting a mobile session
// for the first time, the mobile browser is issued a session cookie"
// (§3.2).
func (m *Manager) Ensure(w http.ResponseWriter, r *http.Request) (*Session, error) {
	if s, err := m.FromRequest(r); err == nil {
		return s, nil
	}
	s, err := m.Create()
	if err != nil {
		return nil, err
	}
	http.SetCookie(w, &http.Cookie{
		Name:     CookieName,
		Value:    s.ID,
		Path:     "/",
		HttpOnly: true,
	})
	return s, nil
}

func newID() (string, error) {
	var buf [16]byte
	if _, err := rand.Read(buf[:]); err != nil {
		return "", fmt.Errorf("session: generating id: %w", err)
	}
	return hex.EncodeToString(buf[:]), nil
}
