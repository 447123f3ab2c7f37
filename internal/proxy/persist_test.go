package proxy

import (
	"bytes"
	"context"
	"encoding/binary"
	"image"
	"image/color"
	"net/http"
	"net/http/cookiejar"
	"net/http/httptest"
	"os"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"msite/internal/attr"
	"msite/internal/cache"
	"msite/internal/origin"
	"msite/internal/session"
	"msite/internal/spec"
	"msite/internal/store"
)

// persistRig is a proxy over a tiered cache backed by a real durable
// store, restartable against the same store directory.
type persistRig struct {
	t        *testing.T
	origin   *httptest.Server
	storeDir string
	// cfg carries the entry-mode knobs every generation is built with,
	// mutate (may be nil) what its spec adds to forumSpec.
	cfg    Config
	mutate func(*spec.Spec)
	// sessionRoot is the current generation's session directory root.
	sessionRoot string

	st    *store.Store
	tc    *cache.Tiered
	p     *Proxy
	proxy *httptest.Server
}

func newPersistRig(t *testing.T) *persistRig { return newPersistRigSpec(t, Config{}, nil) }

func newPersistRigSpec(t *testing.T, cfg Config, mutate func(*spec.Spec)) *persistRig {
	t.Helper()
	forum := origin.NewForum(origin.DefaultForumConfig())
	originSrv := httptest.NewServer(forum.Handler())
	t.Cleanup(originSrv.Close)
	rig := &persistRig{t: t, origin: originSrv, storeDir: t.TempDir(), cfg: cfg, mutate: mutate}
	rig.start()
	return rig
}

// start boots a fresh proxy generation over the persistent store dir.
func (rig *persistRig) start() {
	t := rig.t
	t.Helper()
	st, err := store.Open(store.Options{Dir: rig.storeDir})
	if err != nil {
		t.Fatal(err)
	}
	tc := cache.NewTiered(cache.New(), st)
	rig.sessionRoot = t.TempDir()
	sessions, err := session.NewManager(rig.sessionRoot)
	if err != nil {
		t.Fatal(err)
	}
	cfg := rig.cfg
	cfg.Spec = forumSpec(rig.origin.URL)
	if rig.mutate != nil {
		rig.mutate(cfg.Spec)
	}
	cfg.Sessions = sessions
	cfg.Cache = tc
	cfg.PersistBundles = true
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rig.st, rig.tc, rig.p = st, tc, p
	rig.proxy = httptest.NewServer(p)
	t.Cleanup(func() {
		rig.proxy.Close()
		tc.Close()
		_ = st.Close()
	})
}

// restart closes this generation (draining async writes) and boots a new
// one from the same store directory — the crash/deploy cycle.
func (rig *persistRig) restart() {
	rig.t.Helper()
	rig.proxy.Close()
	rig.tc.Close() // drains the write-through queue
	if err := rig.st.Close(); err != nil {
		rig.t.Fatal(err)
	}
	rig.start()
}

// get fetches a path with a fresh cookie-jar client.
func (rig *persistRig) get(path string) (string, *http.Response) {
	rig.t.Helper()
	jar, _ := cookiejar.New(nil)
	client := &http.Client{Jar: jar, Timeout: 30 * time.Second}
	resp, err := client.Get(rig.proxy.URL + path)
	if err != nil {
		rig.t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	var b strings.Builder
	buf := make([]byte, 32<<10)
	for {
		n, rerr := resp.Body.Read(buf)
		b.Write(buf[:n])
		if rerr != nil {
			break
		}
	}
	return b.String(), resp
}

// TestWarmRestartServesWithoutRenders is the proxy-level warm-restart
// proof: after a restart against the same store directory, the entry
// page (snapshot overlay included) is served entirely from durable
// artifacts — zero adaptations, zero snapshot renders.
func TestWarmRestartServesWithoutRenders(t *testing.T) {
	rig := newPersistRig(t)

	body, resp := rig.get("/")
	if resp.StatusCode != 200 {
		t.Fatalf("cold entry: %d: %s", resp.StatusCode, body)
	}
	cold := rig.p.Stats()
	if cold.Adaptations != 1 || cold.SnapshotRenders != 1 {
		t.Fatalf("cold stats = %+v; want 1 adaptation, 1 render", cold)
	}

	rig.restart()

	warmBody, resp := rig.get("/")
	if resp.StatusCode != 200 {
		t.Fatalf("warm entry: %d: %s", resp.StatusCode, warmBody)
	}
	if !strings.Contains(warmBody, "/asset/snapshot") {
		t.Fatalf("warm entry lost the snapshot overlay: %s", warmBody)
	}
	warm := rig.p.Stats()
	if warm.SnapshotRenders != 0 {
		t.Fatalf("warm restart re-rendered the snapshot %d times", warm.SnapshotRenders)
	}
	if warm.Adaptations != 0 {
		t.Fatalf("warm restart re-ran the pipeline %d times", warm.Adaptations)
	}
	if hits := rig.st.Stats().Hits; hits == 0 {
		t.Fatal("warm restart served without touching the durable store")
	}

	// The rehydrated bundle serves subpages and assets too.
	subBody, resp := rig.get("/subpage/login")
	if resp.StatusCode != 200 || !strings.Contains(subBody, "<html") {
		t.Fatalf("warm subpage: %d: %s", resp.StatusCode, subBody)
	}
}

// TestRefreshBypassesBundle proves ?refresh=1 still forces a real
// pipeline run (and overwrites the stored bundle) on a warm proxy.
func TestRefreshBypassesBundle(t *testing.T) {
	rig := newPersistRig(t)
	if _, resp := rig.get("/"); resp.StatusCode != 200 {
		t.Fatal("cold entry failed")
	}
	rig.restart()

	if _, resp := rig.get("/?refresh=1"); resp.StatusCode != 200 {
		t.Fatal("refresh entry failed")
	}
	if got := rig.p.Stats().Adaptations; got != 1 {
		t.Fatalf("refresh ran %d adaptations; want 1 (bundle bypassed)", got)
	}
}

// TestPersonalizedSessionsBypassBundle: logged-in (personalized)
// sessions must never be served another user's persisted bundle.
func TestPersonalizedSessionsBypassBundle(t *testing.T) {
	rig := newPersistRig(t)
	if _, resp := rig.get("/"); resp.StatusCode != 200 {
		t.Fatal("cold entry failed")
	}
	rig.restart()

	// A personalized session: mark via the session manager directly.
	jar, _ := cookiejar.New(nil)
	client := &http.Client{Jar: jar, Timeout: 30 * time.Second}
	resp, err := client.Get(rig.proxy.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	// First anonymous visit on the warm proxy reused the bundle.
	if got := rig.p.Stats().Adaptations; got != 0 {
		t.Fatalf("anonymous warm visit ran %d adaptations", got)
	}
}

// testBundle assembles a Bundle from raw files the way build
// does, for wire-format tests that need no pipeline run.
func testBundle(pages, assets map[string]string, subs ...*attr.Subpage) *Bundle {
	b := &Bundle{
		pages:  make(map[string]*artifact),
		assets: make(map[string]*artifact),
		areas:  subs,
	}
	for name, data := range pages {
		b.pages[name] = newArtifact(name, []byte(data), assetCacheControl)
	}
	for name, data := range assets {
		b.assets[name] = newArtifact(name, []byte(data), assetCacheControl)
	}
	slices.SortFunc(b.areas, func(x, y *attr.Subpage) int { return strings.Compare(x.Name, y.Name) })
	b.linkSubpages()
	return b
}

// TestEncodeBundleDeterministic: one Bundle encodes to the same bytes
// every time, though its pages, assets, subpages and images live in
// maps.
func TestEncodeBundleDeterministic(t *testing.T) {
	b := coldForumBundle(t)
	first, err := encodeBundle(b)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 20; i++ {
		again, err := encodeBundle(b)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, first) {
			t.Fatalf("encoding %d of the same Bundle differs from the first", i)
		}
	}
}

// roundTripNavHTML is the nav page of roundTripBundle.
const roundTripNavHTML = "<html><head><title>Navigation</title></head><body><ul><li>a</li></ul></body></html>"

// roundTripBundle is a small Bundle with every part a record holds: a
// note, an AJAX subpage and a plain one, pages, an asset, and a decoded
// image stored under two keys beside one stored under one.
func roundTripBundle() *Bundle {
	img := image.NewRGBA(image.Rect(0, 0, 3, 2))
	img.Set(1, 1, color.RGBA{R: 200, G: 10, B: 30, A: 255})
	b := testBundle(
		map[string]string{"main.html": "<html></html>", attr.SubpageFileName("nav"): roundTripNavHTML},
		map[string]string{"t.png": "\x09"},
		&attr.Subpage{
			Name:   "nav",
			Title:  "Navigation",
			Region: attr.Region{X: 1, Y: 2, W: 30, H: 40},
			AJAX:   true,
		},
		&attr.Subpage{Name: "pics", Title: "pics", Parent: "nav", Region: attr.Region{X: -3, W: 5, H: 6}},
	)
	b.notes = []string{"degraded filter: x"}
	b.images = map[string]image.Image{
		"/logo.gif":               img,
		"http://origin/logo.gif":  img, // alias of the same decoded image
		"http://origin/other.gif": image.NewRGBA(image.Rect(0, 0, 1, 1)),
	}
	return b
}

// TestBundleRoundTrip pins the wire format: a build product survives
// encode/decode with its areas, files, notes and images intact.
func TestBundleRoundTrip(t *testing.T) {
	src := roundTripBundle()
	blob, err := encodeBundle(src)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	got, err := decodeBundle(blob)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(got.areas, src.areas) {
		t.Fatalf("areas mangled: %+v", got.areas)
	}
	if page := got.pages[attr.SubpageFileName("nav")]; page == nil || string(page.data) != roundTripNavHTML || got.subpage("nav") != page {
		t.Fatalf("nav page mangled: %+v", page)
	}
	if len(got.pages) != 2 || string(got.pages["main.html"].data) != "<html></html>" ||
		got.pages["main.html"].ctype[0] != "text/html; charset=utf-8" {
		t.Fatalf("pages mangled: %+v", got.pages)
	}
	if a := got.assets["t.png"]; len(got.assets) != 1 || a == nil || string(a.data) != "\x09" ||
		a.ctype[0] != "image/png" || a.etag[0] != src.assets["t.png"].etag[0] {
		t.Fatalf("assets mangled: %+v", got.assets)
	}
	if len(got.notes) != 1 || got.notes[0] != "degraded filter: x" {
		t.Fatalf("notes mangled: %v", got.notes)
	}
	if len(got.images) != 3 {
		t.Fatalf("images = %d; want 3 keys", len(got.images))
	}
	if got.images["/logo.gif"] != got.images["http://origin/logo.gif"] {
		t.Fatal("aliased image keys decoded to distinct images")
	}
	r, g, bb, a := got.images["/logo.gif"].At(1, 1).RGBA()
	if r>>8 != 200 || g>>8 != 10 || bb>>8 != 30 || a>>8 != 255 {
		t.Fatalf("image pixel mangled: %d %d %d %d", r>>8, g>>8, bb>>8, a>>8)
	}
	// A record that could not serve an entry page is rejected.
	headless, err := encodeBundle(testBundle(nil, nil))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := decodeBundle(headless); err == nil {
		t.Fatal("bundle without a main page decoded")
	}
}

// TestRejectedRecordsAreRebuilt: a record the decoder does not accept
// byte for byte, whether written by an older binary or damaged, is
// refused; a proxy that finds one deletes it and rebuilds.
func TestRejectedRecordsAreRebuilt(t *testing.T) {
	good, err := encodeBundle(roundTripBundle())
	if err != nil {
		t.Fatal(err)
	}
	// edit returns a copy of good with f applied.
	edit := func(f func([]byte) []byte) []byte { return f(bytes.Clone(good)) }
	gobV2, err := os.ReadFile("testdata/bundle_gob_v2.bin")
	if err != nil {
		t.Fatal(err)
	}
	unsorted := roundTripBundle()
	unsorted.areas[0], unsorted.areas[1] = unsorted.areas[1], unsorted.areas[0]
	unsortedRecord, err := encodeBundle(unsorted)
	if err != nil {
		t.Fatal(err)
	}
	// The first note's length and the nav area's AJAX byte, by the layout.
	firstNote := len(bundleMagic) + 4
	navAJAX := firstNote + 4 + len("degraded filter: x") + 4 + 4 + len("nav") + 4 + len("Navigation") + 4 + 4*4
	if good[navAJAX] != 1 {
		t.Fatalf("byte %d of the record is %d, not the nav area's AJAX flag", navAJAX, good[navAJAX])
	}
	cases := []struct {
		name   string
		record []byte
	}{
		// Captured from the gob encoder this layout replaced: a v2 record
		// with a validator, an AJAX subpage, notes and an aliased image.
		{"gob v2", gobV2},
		{"foreign magic", edit(func(r []byte) []byte { r[len(bundleMagic)-1]++; return r })},
		{"truncated", good[:len(good)-1]},
		{"trailing byte", append(bytes.Clone(good), 0)},
		{"unsorted names", unsortedRecord},
		{"length out of range", edit(func(r []byte) []byte {
			binary.BigEndian.PutUint32(r[firstNote:], uint32(len(r)))
			return r
		})},
		{"AJAX byte 2", edit(func(r []byte) []byte { r[navAJAX] = 2; return r })},
	}
	rig := newPersistRig(t)
	if _, resp := rig.get("/"); resp.StatusCode != 200 {
		t.Fatal("cold entry failed")
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := decodeBundle(tc.record); err == nil {
				t.Fatal("decoded")
			}
			rig.tc.Put(rig.p.bundleKey, cache.Entry{Data: tc.record, MIME: "application/x-msite-bundle"}, DefaultBundleTTL)
			if !rig.tc.Flush(10 * time.Second) {
				t.Fatal("store write did not drain")
			}
			rig.p.sharedMu.Lock()
			rig.p.shared, rig.p.sharedSrc = nil, nil
			rig.p.sharedMu.Unlock()
			if _, ok := rig.p.loadBundle(context.Background()); ok {
				t.Fatal("loadBundle served the record")
			}
			if !rig.tc.Flush(10 * time.Second) {
				t.Fatal("store delete did not drain")
			}
			if _, ok := rig.tc.Get(rig.p.bundleKey); ok {
				t.Fatal("loadBundle kept the record")
			}
			before := rig.p.Stats().Adaptations
			if _, resp := rig.get("/"); resp.StatusCode != 200 {
				t.Fatalf("entry after the record = %d, want 200", resp.StatusCode)
			}
			if got := rig.p.Stats().Adaptations - before; got != 1 {
				t.Fatalf("adaptations = %d, want 1 rebuild", got)
			}
			if e, ok := rig.tc.Get(rig.p.bundleKey); !ok {
				t.Fatal("the rebuild stored no record")
			} else if _, err := decodeBundle(e.Data); err != nil {
				t.Fatalf("the rebuilt record does not decode: %v", err)
			}
		})
	}
}

// TestOversizedBundleImageIsRebuilt: a stored record whose image declares
// 60000×60000 fails to decode from its header, instead of the decoder
// asking for ~14 GB; a restarted proxy that finds it deletes it and
// rebuilds, as it does any record it cannot decode.
func TestOversizedBundleImageIsRebuilt(t *testing.T) {
	rig := newPersistRig(t)
	if _, resp := rig.get("/"); resp.StatusCode != 200 {
		t.Fatal("cold entry failed")
	}
	_, record := rig.p.sharedBundle()
	// The record with its image list, the last, replaced by one image.
	b, err := decodeBundle(record)
	if err != nil {
		t.Fatal(err)
	}
	b.images = nil
	imageless, err := encodeBundle(b)
	if err != nil {
		t.Fatal(err)
	}
	w := recordWriter{buf: bytes.Clone(imageless[:len(imageless)-4])}
	w.uint32(1)
	w.uint32(1)
	field(&w, "/huge.png")
	field(&w, hugePNG())
	hostile := w.buf
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = decodeBundle(hostile)
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "image") {
		t.Fatalf("a record with a 60000×60000 image: err = %v", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 16<<20 {
		t.Fatalf("decoding the record allocated %d MB before refusing it", got>>20)
	}

	rig.tc.Put(rig.p.bundleKey, cache.Entry{Data: hostile, MIME: "application/x-msite-bundle"}, DefaultBundleTTL)
	if !rig.tc.Flush(10 * time.Second) {
		t.Fatal("store write did not drain")
	}
	rig.restart()
	if _, resp := rig.get("/"); resp.StatusCode != 200 {
		t.Fatalf("entry over the hostile record = %d, want 200", resp.StatusCode)
	}
	if got := rig.p.Stats().Adaptations; got != 1 {
		t.Fatalf("adaptations = %d, want 1 (the hostile record was served or kept)", got)
	}
	e, ok := rig.tc.Get(rig.p.bundleKey)
	if !ok || bytes.Equal(e.Data, hostile) {
		t.Fatal("the hostile record was not replaced by the rebuild")
	}
	if _, err := decodeBundle(e.Data); err != nil {
		t.Fatalf("the rebuilt record does not decode: %v", err)
	}
}
