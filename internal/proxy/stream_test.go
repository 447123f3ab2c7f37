package proxy

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/cookiejar"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"msite/internal/attr"
	"msite/internal/cache"
	"msite/internal/origin"
	"msite/internal/session"
)

// streamRig wires a proxy with custom streaming config over an origin
// whose handler can be wrapped (to inject gates or latency).
type streamRig struct {
	origin *httptest.Server
	proxy  *httptest.Server
	p      *Proxy
	cache  cache.Layer
	client *http.Client
}

func newStreamRig(t *testing.T, cfg Config, wrap func(http.Handler) http.Handler) *streamRig {
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
	return &streamRig{
		origin: originSrv,
		proxy:  proxySrv,
		p:      p,
		cache:  cfg.Cache,
		client: &http.Client{Jar: jar, Timeout: 30 * time.Second},
	}
}

// readUntil reads body until the accumulated bytes contain marker,
// failing on EOF or after an overall deadline.
func readUntil(t *testing.T, body io.Reader, marker string) []byte {
	t.Helper()
	var got []byte
	buf := make([]byte, 2048)
	deadline := time.Now().Add(20 * time.Second)
	for !bytes.Contains(got, []byte(marker)) {
		if time.Now().After(deadline) {
			t.Fatalf("marker %q not seen; got so far: %s", marker, got)
		}
		n, err := body.Read(buf)
		got = append(got, buf[:n]...)
		if err != nil {
			t.Fatalf("stream ended before %q: %v\ngot: %s", marker, err, got)
		}
	}
	return got
}

// TestStreamEntryHeadFlushedBeforeOrigin is the flush-early regression
// test: the overlay head must reach the client while the origin — and
// therefore the whole adaptation and raster pipeline behind it — is
// still blocked.
func TestStreamEntryHeadFlushedBeforeOrigin(t *testing.T) {
	gate := make(chan struct{})
	var gateOnce bool
	rig := newStreamRig(t, Config{Stream: true}, func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			<-gate
			h.ServeHTTP(w, r)
		})
	})
	defer func() {
		if !gateOnce {
			close(gate)
		}
	}()

	resp, err := rig.client.Get(rig.proxy.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}

	// The head — through the map's opening tag — must arrive while the
	// origin is still gated and no raster work has happened.
	head := readUntil(t, resp.Body, `<map name="msite-map">`)
	if got := rig.p.Stats().SnapshotRenders; got != 0 {
		t.Fatalf("snapshot rendered (%d) before the origin was even reachable", got)
	}
	if !strings.Contains(string(head), `<img src="/asset/snapshot.jpg"`) {
		t.Fatalf("head missing snapshot img: %s", head)
	}

	// Unblock the origin; the rest of the document must complete, ATF
	// marker included.
	gateOnce = true
	close(gate)
	rest, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	page := string(head) + string(rest)
	if !strings.Contains(page, attr.ATFMarker) {
		t.Fatal("streamed page missing ATF marker")
	}
	if !strings.HasSuffix(strings.TrimSpace(page), "</html>") {
		t.Fatalf("streamed page not closed: ...%s", page[len(page)-60:])
	}
	if !strings.Contains(page, "<area") {
		t.Fatal("streamed page has no image-map areas")
	}
}

// TestStreamTTFBWellBeforeTotal asserts the server-side TTFB histogram
// exists and that the client's first byte arrives well before the
// buffered pipeline could have finished (the origin is slowed).
func TestStreamTTFBWellBeforeTotal(t *testing.T) {
	const delay = 150 * time.Millisecond
	rig := newStreamRig(t, Config{Stream: true}, func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			time.Sleep(delay)
			h.ServeHTTP(w, r)
		})
	})
	start := time.Now()
	resp, err := rig.client.Get(rig.proxy.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	one := make([]byte, 1)
	if _, err := io.ReadFull(resp.Body, one); err != nil {
		t.Fatal(err)
	}
	ttfb := time.Since(start)
	if _, err := io.ReadAll(resp.Body); err != nil {
		t.Fatal(err)
	}
	if ttfb >= delay {
		t.Fatalf("TTFB %v did not beat the origin delay %v — head not flushed early", ttfb, delay)
	}

	var found bool
	for _, h := range rig.p.obs.Snapshot().Histograms {
		if h.Name == "msite_proxy_ttfb_seconds" && h.Count > 0 {
			found = true
		}
	}
	if !found {
		t.Fatal("msite_proxy_ttfb_seconds histogram not recorded")
	}
}

// TestStreamSnapshotByteIdenticalToBuffered is the cross-mode identity
// property at the proxy level: the streaming proxy's snapshot must be
// byte-identical to the buffered proxy's for the same origin content,
// and both entries reference it by the same URL.
func TestStreamSnapshotByteIdenticalToBuffered(t *testing.T) {
	buffered := newStreamRig(t, Config{}, nil)
	streaming := newStreamRig(t, Config{Stream: true}, nil)

	fetchSnap := func(rig *streamRig) (string, []byte) {
		t.Helper()
		resp, err := rig.client.Get(rig.proxy.URL + "/")
		if err != nil {
			t.Fatal(err)
		}
		page, err := io.ReadAll(resp.Body)
		_ = resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		resp, err = rig.client.Get(rig.proxy.URL + "/asset/snapshot.jpg")
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = resp.Body.Close() }()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("snapshot asset status %d", resp.StatusCode)
		}
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(page), data
	}

	bufPage, bufSnap := fetchSnap(buffered)
	streamPage, streamSnap := fetchSnap(streaming)
	if len(bufSnap) == 0 {
		t.Fatal("buffered snapshot empty")
	}
	if !bytes.Equal(bufSnap, streamSnap) {
		t.Fatalf("snapshots differ: buffered %d bytes, streamed %d bytes",
			len(bufSnap), len(streamSnap))
	}

	for name, page := range map[string]string{"buffered": bufPage, "streamed": streamPage} {
		if !strings.Contains(page, `src="/asset/snapshot.jpg"`) {
			t.Fatalf("%s entry does not reference the snapshot: %s", name, page)
		}
	}
}

// TestStreamClientCrashPersistsNoPartialBundle: a client disconnecting
// mid-stream (after the head, before adaptation completed) must not
// leave a partial bundle in the durable tier.
func TestStreamClientCrashPersistsNoPartialBundle(t *testing.T) {
	// The origin holds the entry fetch at a gate. arrived closes when the
	// fetch reaches it, aborted when the origin sees the proxy give up on
	// it: the crash happens mid-build, and the gate opens only once the
	// build is known to be dead — no timing window either side.
	gate, arrived, aborted := make(chan struct{}), make(chan struct{}), make(chan struct{})
	var arriveOnce, abortOnce sync.Once
	rig := newStreamRig(t, Config{Stream: true, PersistBundles: true}, func(h http.Handler) http.Handler {
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
	resp, err := rig.client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	// Head arrives while the origin is gated; then the client "crashes".
	readUntil(t, resp.Body, `<map name="msite-map">`)
	waitFor(arrived, "origin fetch never started")
	cancel()
	_ = resp.Body.Close()
	waitFor(aborted, "origin fetch was not cancelled after the client disconnected")
	close(gate)

	if _, ok := rig.cache.Get(rig.p.bundleKey); ok {
		t.Fatal("partial bundle persisted after client crash")
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

// TestMinimalMarkupEntry: a spec's minimal_markup attribute serves the
// MAML-style page even to a streaming proxy.
func TestMinimalMarkupEntry(t *testing.T) {
	rig := newStreamRig(t, Config{Stream: true}, nil)
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
// the spec, on the buffered path too.
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

// TestStatusRecorderPreservesFlusher: the recorder must forward Flush
// and stamp TTFB at the first visible byte.
func TestStatusRecorderPreservesFlusher(t *testing.T) {
	base := httptest.NewRecorder()
	rec := &statusRecorder{ResponseWriter: base, status: http.StatusOK}
	if _, ok := interface{}(rec).(http.Flusher); !ok {
		t.Fatal("statusRecorder does not implement http.Flusher")
	}
	if !rec.firstByte.IsZero() {
		t.Fatal("firstByte stamped before any write")
	}
	rec.Flush()
	if !base.Flushed {
		t.Fatal("Flush not forwarded to the underlying writer")
	}
	if rec.firstByte.IsZero() {
		t.Fatal("Flush did not stamp TTFB")
	}
	mark := rec.firstByte
	time.Sleep(time.Millisecond)
	_, _ = rec.Write([]byte("x"))
	if rec.firstByte != mark {
		t.Fatal("later writes moved the TTFB mark")
	}
}

// TestEntryFailuresAroundTheHeadFlush pins where the head flush sits in
// the one entry handler. An origin failure comes after it, so a buffered
// entry still gets the status while a streamed one — its 200 already on
// the wire — has its document closed in-band.
func TestEntryFailuresAroundTheHeadFlush(t *testing.T) {
	for _, stream := range []bool{false, true} {
		t.Run(fmt.Sprintf("origin-down/stream=%v", stream), func(t *testing.T) {
			rig := newStreamRig(t, Config{Stream: stream}, nil)
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
			if stream {
				if resp.StatusCode != http.StatusOK || !strings.HasPrefix(page, "<!DOCTYPE html>") ||
					!strings.HasSuffix(page, "</map><p>origin unavailable; retry shortly</p></body></html>") {
					t.Fatalf("streamed entry not closed in-band: %d %s", resp.StatusCode, page)
				}
				if strings.Contains(page, "<area") || strings.Contains(page, attr.ATFMarker) {
					t.Fatalf("aborted entry carries map content: %s", page)
				}
				snap := rig.p.Obs().Snapshot()
				if got := counterValue(snap, "msite_proxy_degraded_total", "stage", "stream_entry"); got != 1 {
					t.Errorf("degraded_total{stage=stream_entry} = %v, want 1", got)
				}
				return
			}
			if resp.StatusCode != http.StatusBadGateway {
				t.Fatalf("status = %d, want 502; body %.80s", resp.StatusCode, page)
			}
			if strings.Contains(page, "<html") {
				t.Fatalf("an error status carries a document: %.120s", page)
			}
		})
	}
}
