package core

import (
	"io"
	"net/http"
	"net/http/cookiejar"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"msite/internal/origin"
)

// newPersistentFramework boots a Framework with the durable store
// enabled over storeDir.
func newPersistentFramework(t *testing.T, originURL, storeDir string) *Framework {
	t.Helper()
	fw, err := New(testSpec(originURL), Config{
		SessionRoot:  t.TempDir(),
		FetchTimeout: 10 * time.Second,
		StoreDir:     storeDir,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fw.Close)
	return fw
}

func getPage(t *testing.T, base, path string) (string, int) {
	t.Helper()
	jar, _ := cookiejar.New(nil)
	client := &http.Client{Jar: jar, Timeout: 30 * time.Second}
	resp, err := client.Get(base + path)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	return string(body), resp.StatusCode
}

// TestFrameworkWarmRestart is the end-to-end warm-restart proof at the
// facade level: a Framework closed and rebuilt over the same store
// directory serves the entry page and snapshot without a single new
// adaptation or snapshot render, and the durable store records the hits.
func TestFrameworkWarmRestart(t *testing.T) {
	forum := origin.NewForum(origin.DefaultForumConfig())
	originSrv := httptest.NewServer(forum.Handler())
	defer originSrv.Close()
	storeDir := t.TempDir()

	// Cold generation: adapt once, rendering the snapshot.
	fw := newPersistentFramework(t, originSrv.URL, storeDir)
	srv := httptest.NewServer(fw.Handler())
	if body, code := getPage(t, srv.URL, "/"); code != 200 {
		t.Fatalf("cold entry: %d: %s", code, body)
	}
	cold := fw.ProxyStats()
	if cold.Adaptations != 1 || cold.SnapshotRenders != 1 {
		t.Fatalf("cold stats = %+v; want 1 adaptation, 1 render", cold)
	}
	if fw.Store() == nil {
		t.Fatal("Store() nil despite StoreDir")
	}
	srv.Close()
	fw.Close()
	fw.Close() // idempotent

	// Warm generation over the same directory.
	fw2 := newPersistentFramework(t, originSrv.URL, storeDir)
	srv2 := httptest.NewServer(fw2.Handler())
	defer srv2.Close()
	body, code := getPage(t, srv2.URL, "/")
	if code != 200 {
		t.Fatalf("warm entry: %d: %s", code, body)
	}
	if !strings.Contains(body, "/asset/snapshot") {
		t.Fatalf("warm entry lost the snapshot overlay: %s", body)
	}
	warm := fw2.ProxyStats()
	if warm.SnapshotRenders != 0 {
		t.Fatalf("warm restart re-rendered the snapshot %d times", warm.SnapshotRenders)
	}
	if warm.Adaptations != 0 {
		t.Fatalf("warm restart re-ran the pipeline %d times", warm.Adaptations)
	}
	if st := fw2.Store().Stats(); st.Hits == 0 || st.Misses != 0 {
		t.Fatalf("warm restart store lookups: %d hits, %d misses; want every lookup a hit", st.Hits, st.Misses)
	}
	c, ok := fw2.Obs().Snapshot().Counter("msite_store_hits_total")
	if !ok || c.Value == 0 {
		t.Fatalf("msite_store_hits_total = %v (ok=%v); want > 0", c, ok)
	}

	// Subpages come from the rehydrated bundle too.
	if sub, code := getPage(t, srv2.URL, "/subpage/login"); code != 200 || !strings.Contains(sub, "loginform") {
		t.Fatalf("warm subpage: %d: %s", code, sub)
	}
}
