package proxy

import (
	"context"
	"io"
	"net/http"
	"net/http/cookiejar"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"msite/internal/cache"
	"msite/internal/origin"
	"msite/internal/session"
)

// entryRig wires a proxy over a forum origin whose handler can be
// wrapped (to inject gates or rewrite pages).
type entryRig struct {
	origin *httptest.Server
	proxy  *httptest.Server
	p      *Proxy
	cache  cache.Layer
	client *http.Client
}

func newEntryRig(t *testing.T, cfg Config, wrap func(http.Handler) http.Handler) *entryRig {
	t.Helper()
	forum := origin.NewForum(origin.DefaultForumConfig())
	h := http.Handler(forum.Handler())
	if wrap != nil {
		h = wrap(h)
	}
	originSrv := httptest.NewServer(h)
	t.Cleanup(originSrv.Close)

	sessions, err := session.NewManager(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg.Spec = forumSpec(originSrv.URL)
	cfg.Sessions = sessions
	if cfg.Cache == nil {
		cfg.Cache = cache.New()
	}
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	proxySrv := httptest.NewServer(p)
	t.Cleanup(proxySrv.Close)
	jar, err := cookiejar.New(nil)
	if err != nil {
		t.Fatal(err)
	}
	return &entryRig{
		origin: originSrv,
		proxy:  proxySrv,
		p:      p,
		cache:  cfg.Cache,
		client: &http.Client{Jar: jar, Timeout: 30 * time.Second},
	}
}

// TestEntryClientDisconnectPersistsNoPartialBundle: a device that gives
// up on its entry request while the build is still fetching the origin
// must not leave a partial bundle in the durable tier.
func TestEntryClientDisconnectPersistsNoPartialBundle(t *testing.T) {
	// The origin holds the entry fetch at a gate. arrived closes when the
	// fetch reaches it, aborted when the origin sees the proxy give up on
	// it: the disconnect happens mid-build, and the gate opens only once
	// the build is known to be dead — no timing window either side.
	gate, arrived, aborted := make(chan struct{}), make(chan struct{}), make(chan struct{})
	var arriveOnce, abortOnce sync.Once
	rig := newEntryRig(t, Config{PersistBundles: true}, func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			arriveOnce.Do(func() { close(arrived) })
			select {
			case <-gate:
			case <-r.Context().Done():
				abortOnce.Do(func() { close(aborted) })
				return
			}
			h.ServeHTTP(w, r)
		})
	})
	waitFor := func(ch <-chan struct{}, what string) {
		t.Helper()
		select {
		case <-ch:
		case <-time.After(5 * time.Second):
			t.Fatal(what)
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, rig.proxy.URL+"/", nil)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		resp, err := rig.client.Do(req)
		if err == nil {
			_ = resp.Body.Close()
		}
		done <- err
	}()
	// The device gives up once the build is waiting on the origin.
	waitFor(arrived, "origin fetch never started")
	cancel()
	if err := <-done; err == nil {
		t.Fatal("the entry answered while its origin was gated")
	}
	waitFor(aborted, "origin fetch was not cancelled after the client disconnected")
	close(gate)

	if _, ok := rig.cache.Get(rig.p.bundleKey); ok {
		t.Fatal("partial bundle persisted after the client disconnected")
	}
	if got := rig.p.Stats().Adaptations; got != 0 {
		t.Fatalf("adaptation completed (%d) despite cancelled request", got)
	}

	// Control: a surviving client does persist the bundle — proving the
	// key probe above watches the right key.
	jar, _ := cookiejar.New(nil)
	client := &http.Client{Jar: jar, Timeout: 30 * time.Second}
	resp2, err := client.Get(rig.proxy.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadAll(resp2.Body); err != nil {
		t.Fatal(err)
	}
	_ = resp2.Body.Close()
	if _, ok := rig.cache.Get(rig.p.bundleKey); !ok {
		t.Fatal("successful request did not persist a bundle — probe key wrong?")
	}
}

// TestEntryFailuresAroundTheHeadFlush keeps the name from when a
// streamed entry flushed its head before the origin fetch. The entry is
// now written in one piece after the build, so an origin failure always
// reaches the device as a status, never as a document cut short.
func TestEntryFailuresAroundTheHeadFlush(t *testing.T) {
	t.Run("origin-down/stream=false", func(t *testing.T) {
		rig := newEntryRig(t, Config{}, nil)
		rig.origin.Close()

		resp, err := http.Get(rig.proxy.URL + "/") // a new device
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		_ = resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		page := string(body)
		if resp.StatusCode != http.StatusBadGateway {
			t.Fatalf("status = %d, want 502; body %.80s", resp.StatusCode, page)
		}
		if strings.Contains(page, "<html") || strings.Contains(page, "<area") {
			t.Fatalf("an error status carries a document: %.120s", page)
		}
	})
}

// TestMinimalMarkupEntry: a spec's minimal_markup attribute, set on a
// running proxy's spec, serves the MAML-style page and does no snapshot
// work.
func TestMinimalMarkupEntry(t *testing.T) {
	rig := newEntryRig(t, Config{}, nil)
	rig.p.cfg.Spec.MinimalMarkup = true
	resp, err := rig.client.Get(rig.proxy.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	page := string(body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, page)
	}
	for _, banned := range []string{"<img", "<script", "usemap", "<map"} {
		if strings.Contains(page, banned) {
			t.Errorf("minimal entry contains %q", banned)
		}
	}
	if !strings.Contains(page, "<a href=") {
		t.Fatal("minimal entry lost its links")
	}
	// Minimal mode does no snapshot work at all.
	if got := rig.p.Stats().SnapshotRenders; got != 0 {
		t.Fatalf("minimal mode rendered %d snapshots", got)
	}

	var found bool
	for _, h := range rig.p.obs.Snapshot().Histograms {
		if h.Name == "msite_proxy_atf_seconds" && h.Label("mode") == "minimal" && h.Count > 0 {
			found = true
		}
	}
	if !found {
		t.Fatal("minimal mode did not record msite_proxy_atf_seconds")
	}
}

// TestSpecMinimalMarkupSelectsMode: the MAML-style mode is selected by
// the spec the proxy is built from.
func TestSpecMinimalMarkupSelectsMode(t *testing.T) {
	forum := origin.NewForum(origin.DefaultForumConfig())
	originSrv := httptest.NewServer(forum.Handler())
	t.Cleanup(originSrv.Close)
	sp := forumSpec(originSrv.URL)
	sp.MinimalMarkup = true
	sessions, err := session.NewManager(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(Config{Spec: sp, Sessions: sessions, Cache: cache.New()})
	if err != nil {
		t.Fatal(err)
	}
	proxySrv := httptest.NewServer(p)
	t.Cleanup(proxySrv.Close)
	jar, _ := cookiejar.New(nil)
	client := &http.Client{Jar: jar, Timeout: 30 * time.Second}
	resp, err := client.Get(proxySrv.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(body), "usemap") {
		t.Fatal("spec-level minimal markup ignored: overlay served")
	}
	if !strings.Contains(string(body), "<a href=") {
		t.Fatal("minimal page lost its links")
	}
}
