// Warm restart: the durable render store surviving a proxy restart.
//
// It starts the synthetic forum origin, boots a framework with
// -store-dir persistence, serves the mobile entry page once (a full
// adaptation + snapshot render), then closes the framework and boots a
// second one over the same store directory. The second generation
// serves the same page from durable artifacts alone: zero adaptations,
// zero snapshot renders.
//
// Run: go run ./examples/warm-restart
package main

import (
	"fmt"
	"io"
	"net/http"
	"net/http/cookiejar"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"msite/internal/core"
	"msite/internal/origin"
	"msite/internal/proxy"
	"msite/internal/spec"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "warm-restart:", err)
		os.Exit(1)
	}
}

func run() error {
	forum := origin.NewForum(origin.DefaultForumConfig())
	originSrv := httptest.NewServer(forum.Handler())
	defer originSrv.Close()

	sp := &spec.Spec{
		Name: "warm-restart", Origin: originSrv.URL + "/", ViewportWidth: 1024,
		Snapshot: spec.SnapshotSpec{
			Enabled: true, Fidelity: "low", Scale: 0.45, CacheTTLSeconds: 3600, Shared: true,
		},
		Objects: []spec.Object{
			{Name: "login", Selector: "#loginform", Attributes: []spec.Attribute{
				{Type: spec.AttrSubpage, Params: map[string]string{"title": "Log in"}},
			}},
		},
	}

	root, err := os.MkdirTemp("", "msite-warm-restart-*")
	if err != nil {
		return err
	}
	defer func() { _ = os.RemoveAll(root) }()
	storeDir := filepath.Join(root, "store")

	// Generation 1: cold. The visit runs the adaptation pipeline and
	// renders the snapshot; the results persist into the store.
	cold, stats, err := visit(sp, root, storeDir)
	if err != nil {
		return err
	}
	fmt.Printf("cold start: entry served in %v (%d adaptation, %d snapshot render)\n",
		cold.Round(time.Millisecond), stats.Adaptations, stats.SnapshotRenders)

	// Generation 2: warm. A fresh framework over the same store
	// directory rehydrates and serves without re-running anything.
	warm, stats2, err := visit(sp, root, storeDir)
	if err != nil {
		return err
	}
	fmt.Printf("warm restart: entry served in %v (%d adaptations, %d snapshot renders)\n",
		warm.Round(time.Millisecond), stats2.Adaptations, stats2.SnapshotRenders)

	if stats2.SnapshotRenders != 0 || stats2.Adaptations != 0 {
		return fmt.Errorf("warm restart re-did work: %+v", stats2)
	}
	fmt.Println("warm restart served entirely from the durable store ✔")
	return nil
}

// visit boots a framework over storeDir, fetches the entry page once,
// and tears the framework down (draining persists into the store).
func visit(sp *spec.Spec, root, storeDir string) (time.Duration, proxy.Stats, error) {
	sessions, err := os.MkdirTemp(root, "sessions-*")
	if err != nil {
		return 0, proxy.Stats{}, err
	}
	fw, err := core.New(sp, core.Config{
		SessionRoot: sessions,
		StoreDir:    storeDir,
	})
	if err != nil {
		return 0, proxy.Stats{}, err
	}
	defer fw.Close()
	proxySrv := httptest.NewServer(fw.Handler())
	defer proxySrv.Close()

	jar, err := cookiejar.New(nil)
	if err != nil {
		return 0, proxy.Stats{}, err
	}
	client := &http.Client{Jar: jar, Timeout: time.Minute}
	start := time.Now()
	resp, err := client.Get(proxySrv.URL + "/")
	if err != nil {
		return 0, proxy.Stats{}, err
	}
	defer func() { _ = resp.Body.Close() }()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return 0, proxy.Stats{}, err
	}
	if resp.StatusCode != http.StatusOK {
		return 0, proxy.Stats{}, fmt.Errorf("entry page status %d", resp.StatusCode)
	}
	elapsed := time.Since(start)
	return elapsed, fw.ProxyStats(), nil
}
