package proxy

import (
	"encoding/binary"
	"hash/crc32"
	"image"
	"image/color"
	"io"
	"math"
	"net/http"
	"net/http/cookiejar"
	"net/http/httptest"
	"net/url"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"msite/internal/cache"
	"msite/internal/imaging"
	"msite/internal/origin"
	"msite/internal/session"
	"msite/internal/spec"
)

// loginRig wires a proxy whose spec enables origin form-login
// marshaling and an action that requires the origin login cookie.
func loginRig(t *testing.T) *testRig {
	t.Helper()
	forum := origin.NewForum(origin.DefaultForumConfig())
	originSrv := httptest.NewServer(forum.Handler())
	t.Cleanup(originSrv.Close)

	sp := &spec.Spec{
		Name:   "members",
		Origin: originSrv.URL + "/",
		Login:  spec.LoginSpec{URL: originSrv.URL + "/login.php"},
		Actions: []spec.Action{
			{ID: 5, Match: `private\.php`, Target: originSrv.URL + "/private.php", Extract: "#pm"},
		},
	}
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

	jar, err := cookiejar.New(nil)
	if err != nil {
		t.Fatal(err)
	}
	return &testRig{origin: originSrv, proxy: proxySrv, p: p,
		client: &http.Client{Jar: jar}}
}

func TestLoginFormServed(t *testing.T) {
	rig := loginRig(t)
	body, resp := rig.get(t, "/login")
	if resp.StatusCode != 200 || !strings.Contains(body, `action="/login"`) {
		t.Fatalf("login form: %d %s", resp.StatusCode, body)
	}
}

func TestLoginMarshaledToOrigin(t *testing.T) {
	rig := loginRig(t)
	// Before login: the private-area action fails (origin 403).
	_, resp := rig.get(t, "/ajax?action=5")
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("pre-login action = %d", resp.StatusCode)
	}

	// Log in through the proxy (forum accepts password "sawdust").
	postResp, err := rig.client.PostForm(rig.proxy.URL+"/login", url.Values{
		"username": {"oakhand"}, "password": {"sawdust"},
	})
	if err != nil {
		t.Fatal(err)
	}
	_, _ = io.ReadAll(postResp.Body)
	_ = postResp.Body.Close()
	if postResp.Request.URL.Path != "/" {
		t.Fatalf("post-login redirect landed at %s", postResp.Request.URL.Path)
	}

	// Now the proxy's cookie jar is authenticated on the origin, so the
	// private fragment is fetchable on the user's behalf.
	body, resp := rig.get(t, "/ajax?action=5")
	if resp.StatusCode != 200 {
		t.Fatalf("post-login action = %d: %s", resp.StatusCode, body)
	}
	if !strings.Contains(body, "oakhand") || !strings.Contains(body, "Private messages") {
		t.Fatalf("fragment = %s", body)
	}
}

func TestLoginBadCredentials(t *testing.T) {
	rig := loginRig(t)
	resp, err := rig.client.PostForm(rig.proxy.URL+"/login", url.Values{
		"username": {"oakhand"}, "password": {"wrong"},
	})
	if err != nil {
		t.Fatal(err)
	}
	_, _ = io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("bad login = %d", resp.StatusCode)
	}
}

func TestLoginDisabledWithoutSpec(t *testing.T) {
	rig := newRig(t, nil) // forumSpec has no Login config
	_, resp := rig.get(t, "/login")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("login without config = %d", resp.StatusCode)
	}
}

func TestLoginIsolatedPerSession(t *testing.T) {
	rig := loginRig(t)
	// User A logs in.
	resp, err := rig.client.PostForm(rig.proxy.URL+"/login", url.Values{
		"username": {"alice"}, "password": {"sawdust"},
	})
	if err != nil {
		t.Fatal(err)
	}
	_, _ = io.ReadAll(resp.Body)
	_ = resp.Body.Close()

	// A fresh client (user B) without login still gets the 403 path.
	jar, _ := cookiejar.New(nil)
	clientB := &http.Client{Jar: jar}
	respB, err := clientB.Get(rig.proxy.URL + "/ajax?action=5")
	if err != nil {
		t.Fatal(err)
	}
	_, _ = io.ReadAll(respB.Body)
	_ = respB.Body.Close()
	if respB.StatusCode != http.StatusBadGateway {
		t.Fatalf("user B inherited user A's origin login: %d", respB.StatusCode)
	}
}

func TestLogoutDropsOriginLogin(t *testing.T) {
	rig := loginRig(t)
	resp, err := rig.client.PostForm(rig.proxy.URL+"/login", url.Values{
		"username": {"oakhand"}, "password": {"sawdust"},
	})
	if err != nil {
		t.Fatal(err)
	}
	_, _ = io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if _, r := rig.get(t, "/ajax?action=5"); r.StatusCode != 200 {
		t.Fatal("login did not take")
	}
	rig.get(t, "/logout")
	if _, r := rig.get(t, "/ajax?action=5"); r.StatusCode != http.StatusBadGateway {
		t.Fatalf("logout did not clear origin cookies: %d", r.StatusCode)
	}
}

func TestStatsEndpoint(t *testing.T) {
	rig := newRig(t, nil)
	rig.get(t, "/")
	body, resp := rig.get(t, "/stats")
	if resp.StatusCode != 200 || resp.Header.Get("Content-Type") != "application/json" {
		t.Fatalf("stats: %d %q", resp.StatusCode, resp.Header.Get("Content-Type"))
	}
	for _, key := range []string{`"requests"`, `"adaptations"`, `"snapshot_renders"`, `"sessions":1`} {
		if !strings.Contains(body, key) {
			t.Fatalf("stats body missing %s: %s", key, body)
		}
	}
}

// TestAssetCacheControl: the entry snapshot is cached for its TTL, and
// every other asset briefly, even one whose name starts like the
// snapshot's.
func TestAssetCacheControl(t *testing.T) {
	rig := newRig(t, func(sp *spec.Spec) {
		for i := range sp.Objects {
			if sp.Objects[i].Name == "forums" {
				sp.Objects[i].Name = "snapshot_forums"
			}
		}
	})
	rig.get(t, "/")
	_, resp := rig.get(t, "/asset/snapshot.jpg")
	if got := resp.Header.Get("Cache-Control"); !strings.Contains(got, "max-age=3600") {
		t.Fatalf("snapshot cache-control = %q", got)
	}
	_, resp = rig.get(t, "/asset/snapshot_forums.png")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pre-render status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("Cache-Control"); !strings.Contains(got, "max-age=300") {
		t.Fatalf("per-user asset cache-control = %q", got)
	}
}

// TestSubpageServesOnlyTheBuild holds that a subpage request serves the
// page the build made and starts no work of its own: a ?format= parameter
// is ignored like any other query, so it neither adapts, renders nor
// allocates more than the plain GET.
func TestSubpageServesOnlyTheBuild(t *testing.T) {
	rig := newRig(t, nil)
	rig.get(t, "/")
	var names []string
	for _, b := range rig.p.sessionBundles() {
		names = nil
		for _, sub := range b.areas {
			names = append(names, sub.Name)
		}
	}
	if want := []string{"forums", "login", "nav"}; !slices.Equal(names, want) {
		t.Fatalf("subpages = %v, want %v", names, want)
	}
	// get fetches path three times and returns its body, its response
	// and the fewest bytes one fetch allocated.
	get := func(path string) (string, *http.Response, uint64) {
		var body string
		var resp *http.Response
		least := uint64(math.MaxUint64)
		for range 3 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			body, resp = rig.get(t, path)
			runtime.ReadMemStats(&after)
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		return body, resp, least
	}
	formats := []string{"html", "text", "pdf", "image/high", "image/low", "image/thumb", "flash"}
	for _, name := range names {
		plain, plainResp, plainBytes := get("/subpage/" + name)
		if plainResp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", name, plainResp.StatusCode)
		}
		for _, format := range formats {
			t.Run(name+"/"+format, func(t *testing.T) {
				stats := rig.p.Stats()
				body, resp, bytes := get("/subpage/" + name + "?format=" + url.QueryEscape(format))
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("status %d", resp.StatusCode)
				}
				if got, want := resp.Header.Get("Content-Type"), plainResp.Header.Get("Content-Type"); got != want {
					t.Errorf("Content-Type %q, plain GET %q", got, want)
				}
				if body != plain {
					t.Errorf("body differs from the plain GET: %d bytes, want %d", len(body), len(plain))
				}
				if now := rig.p.Stats(); now.Adaptations != stats.Adaptations || now.SnapshotRenders != stats.SnapshotRenders {
					t.Errorf("adaptations %d -> %d, snapshot renders %d -> %d",
						stats.Adaptations, now.Adaptations, stats.SnapshotRenders, now.SnapshotRenders)
				}
				if bytes > 2*plainBytes {
					t.Errorf("allocated %d bytes a request, plain GET %d", bytes, plainBytes)
				}
			})
		}
	}
}

func TestAdaptationSingleFlightPerSession(t *testing.T) {
	rig := newRig(t, nil)
	// Establish the session cookie first with a cheap session-creating
	// request that does not adapt (/auth serves its form).
	rig.get(t, "/auth")

	const parallel = 8
	var wg sync.WaitGroup
	for i := 0; i < parallel; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := rig.client.Get(rig.proxy.URL + "/subpage/login")
			if err != nil {
				t.Error(err)
				return
			}
			_, _ = io.ReadAll(resp.Body)
			_ = resp.Body.Close()
			if resp.StatusCode != 200 {
				t.Errorf("status = %d", resp.StatusCode)
			}
		}()
	}
	wg.Wait()
	if got := rig.p.Stats().Adaptations; got != 1 {
		t.Fatalf("adaptations = %d, want 1 (single flight)", got)
	}
}

// TestAssetETagConditional: If-None-Match is a comma-separated list of
// entity tags compared weakly, or "*" (RFC 9110 §13.1.2) — not one
// string compared with ==.
func TestAssetETagConditional(t *testing.T) {
	rig := newRig(t, nil)
	rig.get(t, "/")
	full, resp := rig.get(t, "/asset/snapshot.jpg")
	etag := resp.Header.Get("ETag")
	if etag == "" {
		t.Fatal("no ETag")
	}
	u, _ := url.Parse(rig.proxy.URL)
	for _, tc := range []struct {
		name, header string
		status       int
	}{
		{"exact", etag, http.StatusNotModified},
		{"list", `"stale-1", ` + etag + `,"stale-2"`, http.StatusNotModified},
		{"weak prefix", "W/" + etag, http.StatusNotModified},
		{"star", "*", http.StatusNotModified},
		{"mismatch", `"deadbeef-1", W/"deadbeef-2"`, http.StatusOK},
	} {
		req, err := http.NewRequest(http.MethodGet, rig.proxy.URL+"/asset/snapshot.jpg", nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("If-None-Match", tc.header)
		for _, c := range rig.client.Jar.Cookies(u) {
			req.AddCookie(c)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		_ = resp.Body.Close()
		if resp.StatusCode != tc.status {
			t.Errorf("%s: If-None-Match %q = %d, want %d", tc.name, tc.header, resp.StatusCode, tc.status)
			continue
		}
		want := ""
		if tc.status == http.StatusOK {
			want = full
		}
		if string(body) != want {
			t.Errorf("%s: %d carried %d bytes, want %d", tc.name, resp.StatusCode, len(body), len(want))
		}
		if got := resp.Header.Get("ETag"); got != etag {
			t.Errorf("%s: ETag %q, want %q", tc.name, got, etag)
		}
	}
}

func TestFilterRuntimeFailure(t *testing.T) {
	// A "replace" filter with an invalid pattern passes spec validation
	// (only the type is checked) and fails at adapt time. The failed
	// stage degrades — the page is adapted from the unfiltered source —
	// rather than turning the whole request into a 502.
	rig := newRig(t, func(s *spec.Spec) {
		s.Filters = []spec.Filter{{Type: "replace", Params: map[string]string{"pattern": "("}}}
	})
	_, resp := rig.get(t, "/")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	stats, _ := rig.get(t, "/stats")
	if !strings.Contains(stats, "degraded filter") {
		t.Fatalf("degradation not noted in /stats: %s", stats)
	}
	if c, ok := rig.p.Obs().Snapshot().Counter("msite_proxy_degraded_total",
		"stage", "filter", "site", rig.p.cfg.Spec.Name); !ok || c.Value < 1 {
		t.Fatalf("degradation counter = %+v ok=%v", c, ok)
	}
}

func TestAdaptedPageURLsAnchored(t *testing.T) {
	rig := newRig(t, func(s *spec.Spec) { s.Snapshot.Enabled = false })
	body, _ := rig.get(t, "/")
	// Origin-relative links are absolutized against the origin (the
	// who's-online member links stay on the adapted main page)...
	if !strings.Contains(body, rig.origin.URL+"/member.php") {
		t.Fatalf("member links not anchored to origin: %.300s", body)
	}
	// ...and nothing relative to the proxy host leaks through.
	if strings.Contains(body, `href="/member.php`) {
		t.Fatal("dangling relative link")
	}
	// Subpages get the same treatment.
	sub, _ := rig.get(t, "/subpage/login")
	if strings.Contains(sub, `action="/login.php"`) {
		t.Fatal("subpage form action dangling")
	}
}

func TestStatsSurfacesAdaptationNotes(t *testing.T) {
	rig := newRig(t, func(s *spec.Spec) {
		s.Objects = append(s.Objects, spec.Object{
			Name: "ghost", Selector: "#no-such-element",
			Attributes: []spec.Attribute{{Type: spec.AttrRemove}},
		})
	})
	rig.get(t, "/")
	body, _ := rig.get(t, "/stats")
	if !strings.Contains(body, "matched nothing") || !strings.Contains(body, "ghost") {
		t.Fatalf("notes missing from stats: %s", body)
	}
}

func TestSessionGCUnderLoad(t *testing.T) {
	rig := newRig(t, nil)
	var clients sync.WaitGroup
	var gcDone sync.WaitGroup
	stop := make(chan struct{})
	gcDone.Add(1)
	go func() {
		defer gcDone.Done()
		for {
			select {
			case <-stop:
				return
			default:
				rig.p.cfg.Sessions.GC()
				time.Sleep(time.Millisecond)
			}
		}
	}()
	for i := 0; i < 6; i++ {
		clients.Add(1)
		go func() {
			defer clients.Done()
			jar, err := cookiejar.New(nil)
			if err != nil {
				t.Error(err)
				return
			}
			client := &http.Client{Jar: jar}
			for j := 0; j < 4; j++ {
				resp, err := client.Get(rig.proxy.URL + "/subpage/login")
				if err != nil {
					t.Error(err)
					return
				}
				_, _ = io.ReadAll(resp.Body)
				_ = resp.Body.Close()
				if resp.StatusCode != 200 {
					t.Errorf("status = %d", resp.StatusCode)
					return
				}
			}
		}()
	}
	clients.Wait()
	close(stop)
	gcDone.Wait()
}

// TestSnapshotPaintsRealImages wires an origin whose logo is a real PNG
// and asserts the proxy's snapshot contains the logo's pixels, proving
// the §3.2 "downloading any images to be rendered" path end-to-end.
func TestSnapshotPaintsRealImages(t *testing.T) {
	logo := image.NewRGBA(image.Rect(0, 0, 8, 8))
	magenta := color.RGBA{220, 0, 220, 255}
	for y := 0; y < 8; y++ {
		for x := 0; x < 8; x++ {
			logo.SetRGBA(x, y, magenta)
		}
	}
	logoPNG, err := imaging.EncodePNG(logo)
	if err != nil {
		t.Fatal(err)
	}

	mux := http.NewServeMux()
	mux.HandleFunc("/", func(w http.ResponseWriter, _ *http.Request) {
		_, _ = w.Write([]byte(`<html><body>
<img src="/logo.png" width="200" height="100">
<p>text below the logo</p></body></html>`))
	})
	mux.HandleFunc("/logo.png", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "image/png")
		_, _ = w.Write(logoPNG)
	})
	originSrv := httptest.NewServer(mux)
	defer originSrv.Close()

	sp := &spec.Spec{
		Name: "img", Origin: originSrv.URL + "/",
		Snapshot: spec.SnapshotSpec{Enabled: true, Fidelity: "high", Scale: 1},
	}
	sessions, err := session.NewManager(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(Config{Spec: sp, Sessions: sessions, Cache: cache.New()})
	if err != nil {
		t.Fatal(err)
	}
	proxySrv := httptest.NewServer(p)
	defer proxySrv.Close()

	jar, _ := cookiejar.New(nil)
	client := &http.Client{Jar: jar}
	resp, err := client.Get(proxySrv.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	_, _ = io.ReadAll(resp.Body)
	_ = resp.Body.Close()

	resp2, err := client.Get(proxySrv.URL + "/asset/snapshot.png")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp2.Body)
	_ = resp2.Body.Close()
	if resp2.StatusCode != 200 {
		t.Fatalf("snapshot = %d", resp2.StatusCode)
	}
	snap, err := imaging.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	r, g, b, _ := snap.At(100, 50).RGBA()
	if uint8(r>>8) != 220 || uint8(g>>8) != 0 || uint8(b>>8) != 220 {
		t.Fatalf("snapshot pixel = %d,%d,%d, want magenta logo", r>>8, g>>8, b>>8)
	}
}

// hugePNG is a 65-byte PNG whose IHDR declares 60000×60000 RGBA (~14 GB
// decoded), followed by the start of a zlib stream and IEND: enough for a
// decoder to size the image and begin reading pixels.
func hugePNG() []byte {
	chunk := func(out []byte, typ string, data []byte) []byte {
		out = binary.BigEndian.AppendUint32(out, uint32(len(data)))
		body := append([]byte(typ), data...)
		out = append(out, body...)
		return binary.BigEndian.AppendUint32(out, crc32.ChecksumIEEE(body))
	}
	ihdr := binary.BigEndian.AppendUint32(nil, 60000)
	ihdr = binary.BigEndian.AppendUint32(ihdr, 60000)
	ihdr = append(ihdr, 8, 6, 0, 0, 0) // 8-bit RGBA, not interlaced
	huge := chunk([]byte("\x89PNG\r\n\x1a\n"), "IHDR", ihdr)
	huge = chunk(huge, "IDAT", []byte{0x78, 0x9c, 0, 0, 0, 0, 0, 0})
	return chunk(huge, "IEND", nil)
}

// TestOversizedOriginImageIsSkipped: an origin <img> whose PNG declares
// 60000×60000 is refused from its header like any undecodable image, so
// the cold entry is a 200 and the snapshot draws a placeholder instead of
// the process running out of memory.
func TestOversizedOriginImageIsSkipped(t *testing.T) {
	huge := hugePNG()
	var served atomic.Int32
	mux := http.NewServeMux()
	mux.HandleFunc("/", func(w http.ResponseWriter, _ *http.Request) {
		_, _ = w.Write([]byte(`<html><body>
<img src="/huge.png" width="200" height="100">
<p>text below the image</p></body></html>`))
	})
	mux.HandleFunc("/huge.png", func(w http.ResponseWriter, _ *http.Request) {
		served.Add(1)
		w.Header().Set("Content-Type", "image/png")
		_, _ = w.Write(huge)
	})
	originSrv := httptest.NewServer(mux)
	defer originSrv.Close()

	sp := &spec.Spec{
		Name: "huge", Origin: originSrv.URL + "/",
		Snapshot: spec.SnapshotSpec{Enabled: true, Fidelity: "high", Scale: 1},
	}
	sessions, err := session.NewManager(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(Config{Spec: sp, Sessions: sessions, Cache: cache.New()})
	if err != nil {
		t.Fatal(err)
	}
	proxySrv := httptest.NewServer(p)
	defer proxySrv.Close()

	jar, _ := cookiejar.New(nil)
	client := &http.Client{Jar: jar}
	for _, path := range []string{"/", "/asset/snapshot.png"} {
		resp, err := client.Get(proxySrv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		_, _ = io.ReadAll(resp.Body)
		_ = resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("GET %s = %d, want 200", path, resp.StatusCode)
		}
	}
	if served.Load() == 0 {
		t.Fatal("the build never fetched the origin image")
	}
}
