package proxy

import (
	"bytes"
	"encoding/gob"
	"image"
	"image/color"
	"net/http"
	"net/http/cookiejar"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"msite/internal/attr"
	"msite/internal/cache"
	"msite/internal/imaging"
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
	tc := cache.NewTiered(cache.New(), st, cache.TieredOptions{})
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
		pages:    make(map[string]*artifact),
		assets:   make(map[string]*artifact),
		subpages: make(map[string]*attr.Subpage),
	}
	for name, data := range pages {
		b.pages[name] = newArtifact(name, []byte(data))
	}
	for name, data := range assets {
		b.assets[name] = newArtifact(name, []byte(data))
	}
	for _, sub := range subs {
		b.subpages[sub.Name] = sub
	}
	return b
}

// TestDecodedJPEGRecordKeepsItsAssetName: a record stored before flat
// pre-renders shipped as PNGs holds its forums image as forums.jpg, and
// a page that references that name. Decoded, the subpage still names the
// asset .jpg, from its stored ImageMIME.
func TestDecodedJPEGRecordKeepsItsAssetName(t *testing.T) {
	src := testBundle(
		map[string]string{"main.html": "<html></html>", attr.SubpageFileName("forums"): `<img src="/asset/forums.jpg">`},
		map[string]string{"forums.jpg": "\xff\xd8\xff"},
		&attr.Subpage{Name: "forums", PreRender: true, Fidelity: imaging.FidelityLow,
			ImageData: []byte("\xff\xd8\xff"), ImageMIME: "image/jpeg"},
	)
	blob, err := encodeBundle("sawdust", src)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeBundle(blob)
	if err != nil {
		t.Fatal(err)
	}
	name := attr.AssetFileName(got.subpages["forums"])
	if a := got.assets[name]; name != "forums.jpg" || a == nil || a.ctype != "image/jpeg" {
		t.Fatalf("decoded subpage names its asset %q; stored assets %v", name, got.assets)
	}
}

// TestEncodeBundleDeterministic: one Bundle encodes to the same bytes
// every time, though its pages, assets, subpages and images live in
// maps.
func TestEncodeBundleDeterministic(t *testing.T) {
	site, b := coldForumBundle(t)
	first, err := encodeBundle(site, b)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 20; i++ {
		again, err := encodeBundle(site, b)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, first) {
			t.Fatalf("encoding %d of the same Bundle differs from the first", i)
		}
	}
}

// TestBundleRoundTrip pins the wire format: a build product survives
// encode/decode with subpages, files, notes, and images intact.
func TestBundleRoundTrip(t *testing.T) {
	img := image.NewRGBA(image.Rect(0, 0, 3, 2))
	img.Set(1, 1, color.RGBA{R: 200, G: 10, B: 30, A: 255})
	const navHTML = "<html><head><title>Navigation</title></head><body><ul><li>a</li></ul></body></html>"
	src := testBundle(
		map[string]string{"main.html": "<html></html>", attr.SubpageFileName("nav"): navHTML},
		map[string]string{"t.png": "\x09"},
		&attr.Subpage{
			Name:   "nav",
			Title:  "Navigation",
			Region: attr.Region{X: 1, Y: 2, W: 30, H: 40},
			AJAX:   true,
			Shared: true,
		},
		&attr.Subpage{
			Name:      "pics",
			PreRender: true,
			Fidelity:  imaging.FidelityLow,
			ImageData: []byte{1, 2, 3},
			ImageMIME: "image/png",
			CacheTTL:  time.Minute,
		},
	)
	src.notes = []string{"degraded filter: x"}
	src.images = map[string]image.Image{
		"/logo.gif":               img,
		"http://origin/logo.gif":  img, // alias of the same decoded image
		"http://origin/other.gif": image.NewRGBA(image.Rect(0, 0, 1, 1)),
	}
	src.validator = BundleValidator{
		ETag:         `"abc"`,
		LastModified: "Mon, 02 Jan 2006 15:04:05 GMT",
		FetchedAt:    time.Unix(1700000000, 0).UTC(),
	}
	blob, err := encodeBundle("sawdust", src)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	got, err := decodeBundle(blob)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(got.subpages) != 2 {
		t.Fatalf("subpages = %d", len(got.subpages))
	}
	nav := got.subpages["nav"]
	if nav == nil || nav.Title != "Navigation" || !nav.AJAX || !nav.Shared ||
		nav.Region != (attr.Region{X: 1, Y: 2, W: 30, H: 40}) {
		t.Fatalf("nav subpage mangled: %+v", nav)
	}
	if page := got.pages[attr.SubpageFileName("nav")]; page == nil || string(page.data) != navHTML {
		t.Fatalf("nav page mangled: %+v", page)
	}
	pics := got.subpages["pics"]
	if pics == nil || !pics.PreRender || pics.Fidelity != imaging.FidelityLow ||
		string(pics.ImageData) != "\x01\x02\x03" || pics.CacheTTL != time.Minute {
		t.Fatalf("pics subpage mangled: %+v", pics)
	}
	if len(got.pages) != 2 || string(got.pages["main.html"].data) != "<html></html>" ||
		got.pages["main.html"].ctype != "text/html; charset=utf-8" {
		t.Fatalf("pages mangled: %+v", got.pages)
	}
	if a := got.assets["t.png"]; len(got.assets) != 1 || a == nil || string(a.data) != "\x09" ||
		a.ctype != "image/png" || a.etag != src.assets["t.png"].etag {
		t.Fatalf("assets mangled: %+v", got.assets)
	}
	if got.validator != src.validator {
		t.Fatalf("validator mangled: got %+v want %+v", got.validator, src.validator)
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
	// A corrupt blob is rejected, not served; so is a record that could
	// not serve an entry page.
	if _, err := decodeBundle(blob[:len(blob)/2]); err == nil {
		t.Fatal("truncated bundle decoded")
	}
	headless, err := encodeBundle("sawdust", testBundle(nil, nil))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := decodeBundle(headless); err == nil {
		t.Fatal("bundle without a main page decoded")
	}
}

// bundleWireV1 is the exact wire shape of version-1 records (pre
// validator capture, with the per-file Kind label and the per-subpage
// DocHTML copy of its page that writers up to PR 13 emitted), kept here
// so the regression test below encodes a genuinely old record rather
// than a new struct with the fields zeroed.
type bundleWireV1 struct {
	Version  int
	Site     string
	Subpages []subpageWireV1
	Notes    []string
	Files    []fileWireV1
	Images   []imageWire
}

type fileWireV1 struct {
	Dir, Name, Kind string
	Data            []byte
}

type subpageWireV1 struct {
	Name, Title string
	DocHTML     []byte
	Parent      string
	Region      attr.Region
	AJAX        bool
}

// v1NavHTML is the nav subpage of v1Bundle.
const v1NavHTML = "<html><body><p>hi</p></body></html>"

// v1Bundle is a version-1 record with one AJAX subpage.
func v1Bundle() bundleWireV1 {
	return bundleWireV1{
		Version: 1,
		Site:    "sawdust",
		Subpages: []subpageWireV1{{
			Name:    "nav",
			Title:   "Navigation",
			DocHTML: []byte(v1NavHTML),
			Region:  attr.Region{X: 1, Y: 2, W: 30, H: 40},
			AJAX:    true,
		}},
		Notes: []string{"from v1"},
		Files: []fileWireV1{
			{Dir: "pages", Name: "main.html", Data: []byte("<html></html>"), Kind: "main"},
			{Dir: "pages", Name: attr.SubpageFileName("nav"), Data: []byte(v1NavHTML), Kind: "subpage"},
		},
	}
}

func TestDecodeV1BundleBackwardCompatible(t *testing.T) {
	old := v1Bundle()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&old); err != nil {
		t.Fatalf("encoding v1 record: %v", err)
	}
	got, err := decodeBundle(buf.Bytes())
	if err != nil {
		t.Fatalf("decoding v1 record: %v", err)
	}
	nav := got.subpages["nav"]
	if len(got.subpages) != 1 || nav == nil || nav.Title != "Navigation" || !nav.AJAX ||
		nav.Region != (attr.Region{X: 1, Y: 2, W: 30, H: 40}) {
		t.Fatalf("v1 subpages mangled: %+v", got.subpages)
	}
	if page := got.pages[attr.SubpageFileName("nav")]; page == nil || string(page.data) != v1NavHTML {
		t.Fatalf("v1 subpage page mangled: %+v", page)
	}
	if len(got.notes) != 1 || got.notes[0] != "from v1" {
		t.Fatalf("v1 notes mangled: %v", got.notes)
	}
	if !got.validator.Zero() {
		t.Fatalf("v1 record decoded with a non-zero validator: %+v", got.validator)
	}
	// A future version is rejected so the loader rebuilds.
	future := bundleWireV1{Version: bundleWireVersion + 1}
	buf.Reset()
	if err := gob.NewEncoder(&buf).Encode(&future); err != nil {
		t.Fatal(err)
	}
	if _, err := decodeBundle(buf.Bytes()); err == nil {
		t.Fatal("future-version bundle decoded")
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
	var w bundleWire
	if err := gob.NewDecoder(bytes.NewReader(record)).Decode(&w); err != nil {
		t.Fatal(err)
	}
	w.Images = append(w.Images, imageWire{Keys: []string{"/huge.png"}, PNG: hugePNG()})
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&w); err != nil {
		t.Fatal(err)
	}
	hostile := buf.Bytes()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := decodeBundle(hostile)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("a record with a 60000×60000 image decoded")
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
