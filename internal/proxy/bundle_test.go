package proxy

import (
	"bytes"
	"context"
	"fmt"
	"image"
	_ "image/jpeg"
	"io"
	"io/fs"
	"maps"
	"net/http"
	"net/http/cookiejar"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"msite/internal/attr"
	"msite/internal/cache"
	"msite/internal/css"
	"msite/internal/fetch"
	"msite/internal/html"
	"msite/internal/origin"
	"msite/internal/session"
	"msite/internal/spec"
)

// served is what a device can observe of one response.
type served struct {
	Status             int
	ContentType        string
	CacheControl, ETag string
	// Length is the declared Content-Length, -1 for a chunked body.
	Length int64
	Body   string
}

func newDevice(t *testing.T) *http.Client {
	t.Helper()
	jar, err := cookiejar.New(nil)
	if err != nil {
		t.Fatal(err)
	}
	return &http.Client{Jar: jar, Timeout: 30 * time.Second}
}

// viewAll plays one device through everything a proxy serves — the
// entry, every subpage, every asset, and a conditional re-request of
// every asset that carried a validator — and returns what it saw.
func viewAll(t *testing.T, client *http.Client, base string, subpages, assets []string) map[string]served {
	t.Helper()
	out := make(map[string]served)
	get := func(key, path, ifNoneMatch string) served {
		req, err := http.NewRequest(http.MethodGet, base+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		if ifNoneMatch != "" {
			req.Header.Set("If-None-Match", ifNoneMatch)
		}
		resp, err := client.Do(req)
		if err != nil {
			t.Fatalf("%s: %v", key, err)
		}
		defer func() { _ = resp.Body.Close() }()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("%s: %v", key, err)
		}
		s := served{
			Status:       resp.StatusCode,
			ContentType:  resp.Header.Get("Content-Type"),
			CacheControl: resp.Header.Get("Cache-Control"),
			ETag:         resp.Header.Get("ETag"),
			Length:       resp.ContentLength,
			Body:         string(body),
		}
		// An artifact is complete before it is served: a 200 of one
		// declares its length instead of going out chunked.
		if path != "/" && s.Status == http.StatusOK && s.Length != int64(len(body)) {
			t.Errorf("%s: Content-Length %d (transfer encoding %v) for a %d-byte artifact",
				key, s.Length, resp.TransferEncoding, len(body))
		}
		out[key] = s
		return s
	}
	if s := get("/", "/", ""); s.Status != http.StatusOK {
		t.Fatalf("entry status %d: %s", s.Status, s.Body)
	}
	for _, name := range subpages {
		path := "/subpage/" + url.PathEscape(name)
		if s := get(path, path, ""); s.Status != http.StatusOK {
			t.Fatalf("%s status %d", path, s.Status)
		}
	}
	for _, name := range assets {
		path := "/asset/" + url.PathEscape(name)
		if s := get(path, path, ""); s.ETag != "" {
			if c := get("conditional "+path, path, s.ETag); c.Status != http.StatusNotModified || c.Body != "" {
				t.Fatalf("conditional %s = %d with %d body bytes", path, c.Status, len(c.Body))
			}
		}
	}
	return out
}

func diffViews(t *testing.T, label string, want, got map[string]served) {
	t.Helper()
	for key, w := range want {
		if g := got[key]; !reflect.DeepEqual(w, g) {
			t.Errorf("%s: %s differs:\n want %d %q %q %q (%d bytes)\n  got %d %q %q %q (%d bytes)", label, key,
				w.Status, w.ContentType, w.CacheControl, w.ETag, len(w.Body),
				g.Status, g.ContentType, g.CacheControl, g.ETag, len(g.Body))
		}
	}
	if len(got) != len(want) {
		t.Errorf("%s: %d responses, want %d", label, len(got), len(want))
	}
}

// regularFiles lists the regular files under root.
func regularFiles(t *testing.T, root string) []string {
	t.Helper()
	var files []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			files = append(files, path)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestBundleServesIdenticallyFromEveryOrigin is the equivalence oracle
// for the one build product: a Bundle built by the pipeline, the same
// Bundle after encode→decode, and one loaded from the store by a
// restarted proxy serve byte-identical bodies and headers for the
// entry, every subpage, every asset and the ETag/304 exchange, in every
// entry mode; and a bare build — the build function alone, with no
// Proxy, session manager or cache — makes those very pages and assets. On the way it checks that serving touches no session
// directory: none holds a file after a full view, and warm views still
// succeed once the directories are gone. The buffered entry is pinned to
// a golden file captured before the overlay had one builder.
func TestBundleServesIdenticallyFromEveryOrigin(t *testing.T) {
	modes := []struct {
		name    string
		cfg     Config
		minimal bool // the spec's minimal_markup
	}{
		{"buffered", Config{}, false},
		{"minimal", Config{}, true},
	}
	entries := make(map[string]string)
	for _, mode := range modes {
		t.Run(mode.name, func(t *testing.T) {
			rig := newPersistRigSpec(t, mode.cfg, func(sp *spec.Spec) { sp.MinimalMarkup = mode.minimal })
			first := newDevice(t)
			resp, err := first.Get(rig.proxy.URL + "/")
			if err != nil {
				t.Fatal(err)
			}
			_, _ = io.ReadAll(resp.Body)
			_ = resp.Body.Close()
			var subpages, assets []string
			bundle, _ := rig.p.sharedBundle()
			for _, sub := range bundle.areas {
				subpages = append(subpages, sub.Name)
			}
			for name := range bundle.assets {
				assets = append(assets, name)
			}
			// The snapshot too; a mode that has none must 404 it from
			// every origin alike.
			assets = append(assets, rig.p.snapName)
			sort.Strings(subpages)
			sort.Strings(assets)
			if len(subpages) < 3 || len(assets) < 2 {
				t.Fatalf("thin bundle: subpages %v assets %v", subpages, assets)
			}
			view := func(c *http.Client) map[string]served {
				return viewAll(t, c, rig.proxy.URL, subpages, assets)
			}

			built := view(first)
			entries[mode.name] = built["/"].Body
			bareBuildServes(t, rig, built, subpages, assets)
			if got := rig.p.Stats().Adaptations; got != 1 {
				t.Fatalf("adaptations = %d, want 1", got)
			}

			if files := regularFiles(t, rig.sessionRoot); len(files) != 0 {
				t.Fatalf("session directories hold generated files: %v", files)
			}
			dirs, err := os.ReadDir(rig.sessionRoot)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range dirs {
				if err := os.RemoveAll(filepath.Join(rig.sessionRoot, d.Name())); err != nil {
					t.Fatal(err)
				}
			}
			diffViews(t, "warm view without a session directory", built, view(first))

			// Forget the decoded form: the next device's Bundle comes out
			// of decodeBundle(encodeBundle(built)).
			rig.p.sharedMu.Lock()
			rig.p.shared, rig.p.sharedSrc = nil, nil
			rig.p.sharedMu.Unlock()
			diffViews(t, "after encode→decode", built, view(newDevice(t)))
			if decoded, _ := rig.p.sharedBundle(); decoded == bundle ||
				!reflect.DeepEqual(decoded.areas, bundle.areas) {
				t.Fatal("the decoded Bundle's subpage set differs from the built one's (a kept DOM?)")
			}

			rig.restart()
			diffViews(t, "after warm restart", built, view(newDevice(t)))
			if got := rig.p.Stats(); got.Adaptations != 0 || got.SnapshotRenders != 0 {
				t.Fatalf("warm restart stats = %+v; want no adaptation, no render", got)
			}
		})
	}
	golden, err := os.ReadFile("testdata/entry_buffered.golden.html")
	if err != nil {
		t.Fatal(err)
	}
	if entries["buffered"] != string(golden) {
		t.Errorf("buffered entry moved from the golden file:\n got %s\nwant %s", entries["buffered"], golden)
	}
}

// bareBuildServes builds the rig's spec with a fresh anonymous fetcher
// and nothing else, renders its snapshot the same way, and checks every
// page and asset against what a proxy served.
func bareBuildServes(t *testing.T, rig *persistRig, served map[string]served, subpages, assets []string) {
	t.Helper()
	sp := forumSpec(rig.origin.URL)
	if rig.mutate != nil {
		rig.mutate(sp)
	}
	opts, err := newBuildOptions(Config{Spec: sp}, "")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	bare, _, err := build(ctx, fetch.New(nil), sp, &opts)
	if err != nil {
		t.Fatal(err)
	}
	check := func(path string, want []byte) {
		t.Helper()
		if got := served[path]; got.Status != http.StatusOK || got.Body != string(want) {
			t.Errorf("bare build: %s is %d bytes, served %d (status %d)", path, len(want), len(got.Body), got.Status)
		}
	}
	if sp.MinimalMarkup {
		check("/", bare.pages[minimalPage].data)
	}
	for _, name := range subpages {
		check("/subpage/"+url.PathEscape(name), bare.pages[attr.SubpageFileName(name)].data)
	}
	for _, name := range assets {
		if name != rig.p.snapName {
			check("/asset/"+url.PathEscape(name), bare.assets[name].data)
			continue
		}
		if sp.MinimalMarkup {
			continue // no snapshot to compare: every origin 404s it
		}
		snap, err := renderSnapshot(ctx, bare, viewportWidth(sp, 0), snapshotFidelity(sp), snapshotScale(sp))
		if err != nil {
			t.Fatal(err)
		}
		check("/asset/"+url.PathEscape(name), snap.Data)
	}
}

// sharedBundle returns the proxy's decoded-bundle memo and the encoded
// record it stands for.
func (p *Proxy) sharedBundle() (*Bundle, []byte) {
	p.sharedMu.Lock()
	defer p.sharedMu.Unlock()
	return p.shared, p.sharedSrc
}

// sessionBundles returns the Bundle each live session references.
func (p *Proxy) sessionBundles() map[string]*Bundle {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make(map[string]*Bundle, len(p.adapted))
	for id, v := range p.adapted {
		out[id] = v.bundle
	}
	return out
}

// TestBundleDecodedOncePerRecord: N fresh sessions against a warm proxy
// each count one bundle reuse and all reference one decoded Bundle, with
// no adaptation; deleting the record (the benchmark's reset) makes the
// next fresh session rebuild.
func TestBundleDecodedOncePerRecord(t *testing.T) {
	rig := newPersistRig(t)
	if _, resp := rig.get("/"); resp.StatusCode != 200 {
		t.Fatal("cold entry failed")
	}
	rig.restart()

	reuses := rig.p.obs.Counter("msite_proxy_bundle_reuses_total", "site", rig.p.cfg.Spec.Name)
	const n = 5
	for i := 0; i < n; i++ {
		if _, resp := rig.get("/"); resp.StatusCode != 200 {
			t.Fatalf("warm entry %d failed", i)
		}
	}
	if got := reuses.Value(); got != n {
		t.Fatalf("bundle reuses = %d, want %d", got, n)
	}
	if got := rig.p.Stats().Adaptations; got != 0 {
		t.Fatalf("warm sessions ran %d adaptations", got)
	}
	bundles := rig.p.sessionBundles()
	if len(bundles) != n {
		t.Fatalf("%d sessions attached, want %d", len(bundles), n)
	}
	shared, _ := rig.p.sharedBundle()
	for id, b := range bundles {
		if b != shared {
			t.Fatalf("session %s holds its own decoded Bundle", id)
		}
	}

	rig.tc.Delete(rig.p.bundleKey)
	rig.tc.Purge()
	if !rig.tc.Flush(10 * time.Second) {
		t.Fatal("store delete did not drain")
	}
	// The memo goes as soon as the missing record is noticed, so a cold
	// build does not run with its predecessor still held in memory.
	if _, ok := rig.p.loadBundle(context.Background()); ok {
		t.Fatal("loaded a bundle whose record was deleted")
	}
	if b, src := rig.p.sharedBundle(); b != nil || src != nil {
		t.Fatal("the decoded memo outlived its record")
	}
	if _, resp := rig.get("/"); resp.StatusCode != 200 {
		t.Fatal("entry after purge failed")
	}
	if got := rig.p.Stats().Adaptations; got != 1 {
		t.Fatalf("adaptations after purge = %d, want 1 (the memo outlived its record)", got)
	}
	if got := reuses.Value(); got != n {
		t.Fatalf("bundle reuses after purge = %d, want %d", got, n)
	}
}

// storeDuringGet is a cache layer that, on the first Get of key, gives a
// concurrent writer a moment to replace the record just read.
type storeDuringGet struct {
	cache.Layer
	key   string
	write func()
	done  chan struct{}
}

func (c *storeDuringGet) Get(key string) (cache.Entry, bool) {
	e, ok := c.Layer.Get(key)
	if key == c.key && c.write != nil {
		write := c.write
		c.write = nil
		go func() { write(); close(c.done) }()
		select {
		case <-c.done:
		case <-time.After(50 * time.Millisecond):
		}
	}
	return e, ok
}

// TestLoadBundleKeepsNewerRecord: a record stored while a load of its
// predecessor is under way stays the proxy's memo; the load does not put
// the older record's decoded form back.
func TestLoadBundleKeepsNewerRecord(t *testing.T) {
	rig := newPersistRig(t)
	if _, resp := rig.get("/"); resp.StatusCode != 200 {
		t.Fatal("cold entry failed")
	}
	_, older := rig.p.sharedBundle()
	newer, err := decodeBundle(older)
	if err != nil {
		t.Fatal(err)
	}
	newer.notes = append(newer.notes, "newer")
	data, err := encodeBundle(newer)
	if err != nil {
		t.Fatal(err)
	}
	rig.p.sharedMu.Lock()
	rig.p.shared, rig.p.sharedSrc = nil, nil // the load below has to decode
	rig.p.sharedMu.Unlock()
	racing := &storeDuringGet{
		Layer: rig.p.cfg.Cache,
		key:   rig.p.bundleKey,
		write: func() { rig.p.storeBundle(newer, data) },
		done:  make(chan struct{}),
	}
	rig.p.cfg.Cache = racing

	if _, ok := rig.p.loadBundle(context.Background()); !ok {
		t.Fatal("load found no bundle")
	}
	<-racing.done
	if b, src := rig.p.sharedBundle(); b != newer || !sameBytes(src, data) {
		t.Fatal("the load replaced the newer record's memo with the older record")
	}
}

// TestPersonalizedBundlesStayPrivate: two logged-in sessions and an
// anonymous one never reference each other's Bundle, a personalized
// build never becomes the shared or persisted one, and logout and
// ?refresh=1 replace only the caller's view.
func TestPersonalizedBundlesStayPrivate(t *testing.T) {
	base := loginRig(t)
	sessions, err := session.NewManager(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	c := cache.New()
	p, err := New(Config{Spec: base.p.cfg.Spec, Sessions: sessions, Cache: c, PersistBundles: true})
	if err != nil {
		t.Fatal(err)
	}
	proxySrv := httptest.NewServer(p)
	t.Cleanup(proxySrv.Close)
	srv := proxySrv.URL

	sessionOf := func(client *http.Client) string {
		u, _ := url.Parse(srv)
		for _, ck := range client.Jar.Cookies(u) {
			if ck.Name == session.CookieName {
				return ck.Value
			}
		}
		t.Fatal("device has no session cookie")
		return ""
	}
	visit := func(client *http.Client, path string) {
		t.Helper()
		resp, err := client.Get(srv + path)
		if err != nil {
			t.Fatal(err)
		}
		_, _ = io.ReadAll(resp.Body)
		_ = resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s = %d", path, resp.StatusCode)
		}
	}
	login := func(user string) *http.Client {
		t.Helper()
		client := newDevice(t)
		resp, err := client.PostForm(srv+"/login", url.Values{"username": {user}, "password": {"sawdust"}})
		if err != nil {
			t.Fatal(err)
		}
		_, _ = io.ReadAll(resp.Body)
		_ = resp.Body.Close()
		return client
	}

	anon := newDevice(t)
	visit(anon, "/")
	alice, oakhand := login("alice"), login("oakhand")
	anonID, aliceID, oakhandID := sessionOf(anon), sessionOf(alice), sessionOf(oakhand)

	shared, record := p.sharedBundle()
	before := p.sessionBundles()
	if before[anonID] != shared {
		t.Fatal("anonymous session does not reference the shared Bundle")
	}
	if before[aliceID] == nil || before[oakhandID] == nil ||
		before[aliceID] == before[oakhandID] || before[aliceID] == shared || before[oakhandID] == shared {
		t.Fatalf("personalized sessions share a Bundle: %p %p shared %p", before[aliceID], before[oakhandID], shared)
	}
	if e, ok := c.Get(p.bundleKey); !ok || !sameBytes(e.Data, record) {
		t.Fatal("a personalized build replaced the persisted bundle")
	}

	visit(alice, "/logout")
	visit(oakhand, "/?refresh=1")
	after := p.sessionBundles()
	if after[anonID] != shared {
		t.Fatal("another session's logout/refresh moved the anonymous view")
	}
	// The logout redirect re-adapted alice: a fresh view, still private.
	if after[aliceID] == before[aliceID] {
		t.Fatal("logout kept the logged-in view")
	}
	if after[oakhandID] == before[oakhandID] || after[oakhandID] == shared || after[oakhandID] == after[aliceID] {
		t.Fatal("refresh did not give the caller a fresh private Bundle")
	}
	if now, _ := p.sharedBundle(); now != shared {
		t.Fatal("a personalized build became the shared Bundle")
	}
	if e, ok := c.Get(p.bundleKey); !ok || !sameBytes(e.Data, record) {
		t.Fatal("a personalized refresh overwrote the persisted bundle")
	}

	// The same holds for what is rendered from a Bundle: the cross-session
	// snapshot is only ever a picture of the anonymous page, and a
	// logged-in session is shown its own page, whichever of the two
	// arrives first.
	for _, loggedInFirst := range []bool{true, false} {
		t.Run(fmt.Sprintf("snapshot/buffered/loggedInFirst=%v", loggedInFirst), func(t *testing.T) {
			testPersonalizedSnapshotStaysPrivate(t, loggedInFirst)
		})
	}
}

// TestUnsharedSnapshotRenderedOncePerBundle: a view whose snapshot does
// not go through the shared cache, a logged-in device's or any under a
// spec whose snapshot is not shared, renders it once per Bundle: four
// entry views (a login's redirect among them, the others at once) make
// one render, a ?refresh=1 that yields a new Bundle one more, and the
// views after it none. The views of one Bundle are served one snapshot.
func TestUnsharedSnapshotRenderedOncePerBundle(t *testing.T) {
	for _, tc := range []struct {
		name             string
		shared, loggedIn bool
	}{
		{"shared spec, logged in", true, true},
		{"unshared spec, anonymous", false, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			testSnapshotRenderedOncePerBundle(t, tc.shared, tc.loggedIn)
		})
	}
}

func testSnapshotRenderedOncePerBundle(t *testing.T, shared, loggedIn bool) {
	rig := newRig(t, func(sp *spec.Spec) {
		sp.Login.URL = sp.Origin + "login.php"
		sp.Snapshot.Shared = shared
	})
	srv := rig.proxy.URL
	get := func(c *http.Client, path string) []byte {
		t.Helper()
		resp, err := c.Get(srv + path)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		_ = resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s = %d, %v", path, resp.StatusCode, err)
		}
		return body
	}
	device := newDevice(t)
	renders := rig.p.Stats().SnapshotRenders
	views := 4
	if loggedIn {
		resp, err := device.PostForm(srv+"/login", url.Values{"username": {"alice"}, "password": {"sawdust"}})
		if err != nil {
			t.Fatal(err)
		}
		_, _ = io.ReadAll(resp.Body)
		_ = resp.Body.Close()
		views-- // the login's redirect was an entry view
	} else {
		get(device, "/subpage/login") // a session, and a view without a snapshot
	}
	// The entry views arrive at once: they wait for one render.
	snaps := make([][]byte, views)
	errs := make([]error, views)
	var wg sync.WaitGroup
	for i := range views {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, path := range []string{"/", "/asset/" + rig.p.snapName} {
				resp, err := device.Get(srv + path)
				if err != nil {
					errs[i] = err
					return
				}
				snaps[i], err = io.ReadAll(resp.Body)
				_ = resp.Body.Close()
				if err == nil && resp.StatusCode != http.StatusOK {
					err = fmt.Errorf("GET %s = %d", path, resp.StatusCode)
				}
				if err != nil {
					errs[i] = err
					return
				}
			}
		}()
	}
	wg.Wait()
	for i := range views {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if !bytes.Equal(snaps[i], snaps[0]) {
			t.Fatalf("entry view %d was served a %d-byte snapshot, another %d bytes", i, len(snaps[i]), len(snaps[0]))
		}
	}
	if got := rig.p.Stats().SnapshotRenders - renders; got != 1 {
		t.Fatalf("4 entry views made %d snapshot renders, want 1", got)
	}
	id := ""
	u, _ := url.Parse(srv)
	for _, ck := range device.Jar.Cookies(u) {
		if ck.Name == session.CookieName {
			id = ck.Value
		}
	}
	before := rig.p.sessionBundles()[id]
	get(device, "/?refresh=1")
	if after := rig.p.sessionBundles()[id]; after == nil || after == before {
		t.Fatal("the refresh did not give the device a new Bundle")
	}
	snap := get(device, "/asset/"+rig.p.snapName)
	for range 3 {
		get(device, "/")
		if again := get(device, "/asset/"+rig.p.snapName); !bytes.Equal(again, snap) {
			t.Fatalf("a view of the refreshed Bundle was served a %d-byte snapshot, at first %d bytes", len(again), len(snap))
		}
	}
	if got := rig.p.Stats().SnapshotRenders - renders; got != 2 {
		t.Fatalf("4 entry views, a refresh to a new Bundle and 3 views of it made %d snapshot renders, want 2", got)
	}
}

func testPersonalizedSnapshotStaysPrivate(t *testing.T, loggedInFirst bool) {
	// An origin whose entry page greets a logged-in member above the fold.
	rig := newEntryRig(t, Config{}, func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			ck, err := r.Cookie("bbuserid")
			if r.URL.Path != "/" || err != nil {
				h.ServeHTTP(w, r)
				return
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, r)
			greeting := `<body><div style="background-color: #cc0000; height: 120px">Inbox of ` + ck.Value + `</div>`
			_, _ = io.WriteString(w, strings.Replace(rec.Body.String(), "<body>", greeting, 1))
		})
	})
	rig.p.cfg.Spec.Login.URL = rig.origin.URL + "/login.php"
	sharedKey := "snapshot:" + rig.p.cfg.Spec.Name

	snapshotOf := func(client *http.Client) []byte {
		t.Helper()
		var body []byte
		for _, path := range []string{"/", "/asset/" + rig.p.snapName} {
			resp, err := client.Get(rig.proxy.URL + path)
			if err != nil {
				t.Fatal(err)
			}
			body, err = io.ReadAll(resp.Body)
			_ = resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusOK {
				t.Fatalf("GET %s = %d, %v", path, resp.StatusCode, err)
			}
		}
		return body
	}
	alice := newDevice(t)
	logIn := func() {
		t.Helper()
		resp, err := alice.PostForm(rig.proxy.URL+"/login", url.Values{"username": {"alice"}, "password": {"sawdust"}})
		if err != nil {
			t.Fatal(err)
		}
		_, _ = io.ReadAll(resp.Body)
		_ = resp.Body.Close()
	}

	var anonSnap []byte
	if loggedInFirst {
		logIn()
		snapshotOf(alice)
		if _, ok := rig.cache.Get(sharedKey); ok {
			t.Fatalf("a logged-in session's render was published as %s", sharedKey)
		}
		anonSnap = snapshotOf(newDevice(t))
	} else {
		anonSnap = snapshotOf(newDevice(t))
		logIn()
	}
	if aliceSnap := snapshotOf(alice); bytes.Equal(aliceSnap, anonSnap) {
		t.Fatal("the logged-in session and the anonymous one were shown the same snapshot")
	}
	if again := snapshotOf(newDevice(t)); !bytes.Equal(again, anonSnap) {
		t.Fatal("a later anonymous session was shown a different snapshot")
	}
	if e, ok := rig.cache.Get(sharedKey); !ok || !bytes.Equal(e.Data, anonSnap) {
		t.Fatal("the shared snapshot is not the anonymous render")
	}
}

// TestStylesheetsParsedOncePerBuild: everything that styles a build's
// documents — the attribute phase's layouts, the pre-render's, the
// pruner, the snapshot render of the main page — goes through the
// build's one memo, so a cold view of the evaluation spec costs one parse
// per distinct <style> text, and a warm view none. The first render takes
// the memo with it; a later one, and any render of a decoded Bundle,
// parses for itself — once per sheet — and renders the same bytes.
func TestStylesheetsParsedOncePerBuild(t *testing.T) {
	rig := newPersistRigSpec(t, Config{}, evaluationSpec)
	view := func() (snapshot string) {
		t.Helper()
		c := newDevice(t)
		for _, path := range []string{"/", "/asset/" + rig.p.snapName, "/subpage/login", "/subpage/nav", "/subpage/forums", "/asset/forums.png"} {
			resp, err := c.Get(rig.proxy.URL + path)
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			_ = resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("GET %s = %d", path, resp.StatusCode)
			}
			if path == "/asset/"+rig.p.snapName {
				snapshot = string(body)
			}
		}
		return snapshot
	}
	parsed := func(f func()) int {
		before := css.ParseCount()
		f()
		return int(css.ParseCount() - before)
	}

	var built string
	cold := parsed(func() { built = view() })
	bundle, _ := rig.p.sharedBundle()
	texts := make(map[string]bool)
	for _, style := range html.Tidy(string(bundle.pages[mainPage].data)).Elements("style") {
		texts[css.StyleSource(style)] = true
	}
	if len(texts) < 2 || cold != len(texts) {
		t.Fatalf("a cold view parsed %d stylesheets; the main page carries %d distinct ones", cold, len(texts))
	}
	if n := parsed(func() { view() }); n != 0 {
		t.Fatalf("a warm view parsed %d stylesheets", n)
	}
	if bundle.sheets.Load() != nil {
		t.Fatal("the built Bundle still holds the build's parsed stylesheets after its snapshot render")
	}

	// Without the rendered snapshot the next view has to render: first
	// from the built Bundle again, then from its decoded form.
	for _, from := range []string{"built", "decoded"} {
		if from == "decoded" {
			rig.p.sharedMu.Lock()
			rig.p.shared, rig.p.sharedSrc = nil, nil
			rig.p.sharedMu.Unlock()
		}
		// The durable tier writes and deletes asynchronously, on several
		// writers: drain it on both sides of the delete, or the last
		// render's write-through can land after it and serve the view.
		rig.tc.Flush(5 * time.Second)
		rig.p.cfg.Cache.Delete("snapshot:" + rig.p.cfg.Spec.Name)
		rig.tc.Flush(5 * time.Second)
		var again string
		if n := parsed(func() { again = view() }); n != len(texts) {
			t.Fatalf("a later render of the %s Bundle parsed %d stylesheets, want %d", from, n, len(texts))
		}
		if again != built {
			t.Fatalf("the %s Bundle re-rendered a %d-byte snapshot, at first %d bytes", from, len(again), len(built))
		}
	}
	if got := rig.p.Stats(); got.Adaptations != 1 || got.SnapshotRenders != 3 {
		t.Fatalf("stats %+v; want one adaptation and three snapshot renders", got)
	}
}

// TestEntryOverlayFollowsSnapshotGeometry: a Bundle builds its entry
// overlay once and serves it to every session that references it, and a
// re-render of the shared snapshot at another height reaches the entry of
// every Bundle it is shown under. The origin here grows taller with each
// revision, so after Bump and a refresh the new Bundle is first shown
// under the old render's geometry and then, once the shared snapshot is
// rendered again, under its own; the old Bundle, still held by a session
// that did not refresh, follows the same render. A memo keyed by the
// Bundle alone keeps the first geometry and fails here.
func TestEntryOverlayFollowsSnapshotGeometry(t *testing.T) {
	forum := origin.NewForum(origin.DefaultForumConfig())
	handler := forum.Handler()
	originSrv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			handler.ServeHTTP(w, r)
			return
		}
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, r)
		maps.Copy(w.Header(), rec.Header())
		w.Header().Del("Content-Length")
		w.WriteHeader(rec.Code)
		tall := fmt.Sprintf(`<div style="height: %dpx">revision %d</div></body>`, 300*forum.Generation(), forum.Generation())
		_, _ = io.WriteString(w, strings.Replace(rec.Body.String(), "</body>", tall, 1))
	}))
	t.Cleanup(originSrv.Close)
	sessions, err := session.NewManager(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	shared := cache.New()
	p, err := New(Config{Spec: forumSpec(originSrv.URL), Sessions: sessions, Cache: shared, PersistBundles: true})
	if err != nil {
		t.Fatal(err)
	}
	proxySrv := httptest.NewServer(p)
	t.Cleanup(proxySrv.Close)

	geometry := regexp.MustCompile(`<img [^>]*width="(\d+)" height="(\d+)"`)
	// entry GETs path and the snapshot it references, and returns the
	// entry page, checking that it states the snapshot's geometry.
	entry := func(c *http.Client, path string) string {
		t.Helper()
		get := func(path string) []byte {
			resp, err := c.Get(proxySrv.URL + path)
			if err != nil {
				t.Fatal(err)
			}
			defer func() { _ = resp.Body.Close() }()
			body, err := io.ReadAll(resp.Body)
			if err != nil || resp.StatusCode != http.StatusOK {
				t.Fatalf("GET %s = %d, %v", path, resp.StatusCode, err)
			}
			return body
		}
		page := string(get(path))
		m := geometry.FindStringSubmatch(page)
		if m == nil {
			t.Fatalf("entry states no snapshot geometry: %s", page)
		}
		img, _, err := image.DecodeConfig(bytes.NewReader(get("/asset/" + p.snapName)))
		if err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("%d,%d", img.Width, img.Height); m[1]+","+m[2] != want {
			t.Fatalf("entry states a %sx%s snapshot; the snapshot served is %dx%d", m[1], m[2], img.Width, img.Height)
		}
		return page
	}

	first, second := newDevice(t), newDevice(t)
	built := entry(first, "/")
	if again := entry(second, "/"); again != built {
		t.Fatalf("two sessions on one Bundle were served different entries:\n%s\n%s", built, again)
	}
	old, _ := p.sharedBundle()
	if got := p.sessionBundles(); len(got) != 2 {
		t.Fatalf("%d sessions attached, want 2", len(got))
	} else {
		for id, b := range got {
			if b != old {
				t.Fatalf("session %s does not reference the shared Bundle", id)
			}
		}
	}

	forum.Bump()
	entry(first, "/?refresh=1") // the new Bundle under the old render
	if now, _ := p.sharedBundle(); now == old {
		t.Fatal("the refresh did not build a new Bundle")
	}
	shared.Delete(p.snapKey)
	taller := entry(first, "/") // the new Bundle under its own render
	if geometry.FindStringSubmatch(taller)[2] == geometry.FindStringSubmatch(built)[2] {
		t.Fatal("the new revision's snapshot is no taller; the test shows nothing")
	}
	entry(second, "/") // the old Bundle under the new render
	if got := p.Stats(); got.Adaptations != 2 || got.SnapshotRenders != 2 {
		t.Fatalf("stats %+v; want two adaptations and two snapshot renders", got)
	}
}

// BundleKeyForSpec must agree with the key New derives, or a caller
// holding only the spec looks for the site's bundle under the wrong key.
func TestBundleKeyForSpecMatchesProxy(t *testing.T) {
	forum := origin.NewForum(origin.DefaultForumConfig())
	originSrv := httptest.NewServer(forum.Handler())
	t.Cleanup(originSrv.Close)
	sp := forumSpec(originSrv.URL)

	sessions, err := session.NewManager(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(Config{Spec: sp, Sessions: sessions, Cache: cache.New(), PersistBundles: true})
	if err != nil {
		t.Fatal(err)
	}
	key, err := BundleKeyForSpec(sp, 0)
	if err != nil {
		t.Fatal(err)
	}
	if key != p.bundleKey {
		t.Fatalf("BundleKeyForSpec = %q, proxy key = %q", key, p.bundleKey)
	}
}
