// End-to-end integration tests: multi-user concurrency against the full
// stack, failure injection (origin loss, malformed markup), and a
// compile-and-run exercise of the generated proxy program.
package msite_test

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/cookiejar"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"msite/internal/core"
	"msite/internal/experiments"
	"msite/internal/gen"
	"msite/internal/origin"
	"msite/internal/spec"
)

func startForumProxy(t *testing.T) (*core.Framework, *httptest.Server, *httptest.Server) {
	t.Helper()
	forum := origin.NewForum(origin.DefaultForumConfig())
	originSrv := httptest.NewServer(forum.Handler())
	t.Cleanup(originSrv.Close)
	fw, err := core.New(experiments.SpecForForum(originSrv.URL), core.Config{
		SessionRoot: t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	proxySrv := httptest.NewServer(fw.Handler())
	t.Cleanup(proxySrv.Close)
	return fw, originSrv, proxySrv
}

func fetchOK(t *testing.T, client *http.Client, url string) string {
	t.Helper()
	resp, err := client.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer func() { _ = resp.Body.Close() }()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", url, resp.StatusCode, body)
	}
	return string(body)
}

// TestIntegrationMultiUserConcurrency drives 12 independent mobile
// clients through the full journey concurrently: entry page, login
// subpage, pre-rendered forums subpage with its asset, and an AJAX
// action. The snapshot must render once and be amortized across all of
// them (§3.3 Object caching / §4.6).
func TestIntegrationMultiUserConcurrency(t *testing.T) {
	fw, _, proxySrv := startForumProxy(t)

	const users = 12
	var wg sync.WaitGroup
	errs := make(chan error, users)
	for u := 0; u < users; u++ {
		wg.Add(1)
		go func(u int) {
			defer wg.Done()
			jar, err := cookiejar.New(nil)
			if err != nil {
				errs <- err
				return
			}
			client := &http.Client{Jar: jar, Timeout: 60 * time.Second}
			journey := func() error {
				for _, path := range []string{"/", "/subpage/login", "/subpage/forums", "/asset/forums.png", "/asset/shoptour_thumb.jpg", "/ajax?action=1&p=3"} {
					resp, err := client.Get(proxySrv.URL + path)
					if err != nil {
						return fmt.Errorf("user %d %s: %w", u, path, err)
					}
					body, _ := io.ReadAll(resp.Body)
					_ = resp.Body.Close()
					if resp.StatusCode != http.StatusOK {
						return fmt.Errorf("user %d %s: status %d: %.120s", u, path, resp.StatusCode, body)
					}
				}
				return nil
			}
			if err := journey(); err != nil {
				errs <- err
			}
		}(u)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if t.Failed() {
		return
	}

	if got := fw.Sessions().Len(); got != users {
		t.Fatalf("sessions = %d, want %d", got, users)
	}
	stats := fw.ProxyStats()
	if stats.SnapshotRenders != 1 {
		t.Fatalf("snapshot renders = %d, want 1 (amortized)", stats.SnapshotRenders)
	}
	// Concurrent cold sessions of the same page coalesce into shared
	// pipeline runs: perfect overlap builds once, no overlap builds once
	// per user. Anything in between is timing.
	if stats.Adaptations < 1 || stats.Adaptations > users {
		t.Fatalf("adaptations = %d, want 1..%d", stats.Adaptations, users)
	}
}

// TestIntegrationOriginLoss injects origin failure mid-session: content
// already generated keeps serving, and so does a forced re-adaptation,
// from the view the session already has; only a session with nothing to
// fall back on degrades to 502 (the §3.2 "error handling should the
// page be unavailable").
func TestIntegrationOriginLoss(t *testing.T) {
	_, originSrv, proxySrv := startForumProxy(t)
	jar, err := cookiejar.New(nil)
	if err != nil {
		t.Fatal(err)
	}
	client := &http.Client{Jar: jar}
	fetchOK(t, client, proxySrv.URL+"/")
	fetchOK(t, client, proxySrv.URL+"/subpage/login")

	originSrv.Close() // origin goes away

	// Already-generated artifacts still serve.
	fetchOK(t, client, proxySrv.URL+"/subpage/login")
	fetchOK(t, client, proxySrv.URL+"/asset/forums.png")

	// A forced re-adaptation fails, and the session keeps its view.
	fetchOK(t, client, proxySrv.URL+"/?refresh=1")

	// A brand-new user cannot be adapted at all: 502.
	jar2, _ := cookiejar.New(nil)
	client2 := &http.Client{Jar: jar2}
	resp2, err := client2.Get(proxySrv.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	_, _ = io.ReadAll(resp2.Body)
	_ = resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadGateway {
		t.Fatalf("new user with dead origin = %d", resp2.StatusCode)
	}
}

// TestIntegrationMalformedOrigin feeds the proxy pathological tag soup;
// the Tidy pipeline must still produce a working adaptation.
func TestIntegrationMalformedOrigin(t *testing.T) {
	soup := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		_, _ = w.Write([]byte(`<HTML><Body><DIV id=target><P>un<b>closed <table><tr><td>cell
<LI>stray item</UL><img src=x.gif><style>#target { color: red </style>
<script>if (a<b) {</script><p>trailing`))
	}))
	defer soup.Close()

	sp := &spec.Spec{
		Name: "soup", Origin: soup.URL + "/",
		Objects: []spec.Object{
			{Name: "target", Selector: "#target", Attributes: []spec.Attribute{
				{Type: spec.AttrSubpage, Params: map[string]string{"title": "T"}},
			}},
		},
	}
	fw, err := core.New(sp, core.Config{SessionRoot: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	proxySrv := httptest.NewServer(fw.Handler())
	defer proxySrv.Close()

	jar, _ := cookiejar.New(nil)
	client := &http.Client{Jar: jar}
	body := fetchOK(t, client, proxySrv.URL+"/subpage/target")
	if !strings.Contains(body, "cell") {
		t.Fatalf("subpage lost content: %s", body)
	}
}

// TestIntegrationGeneratedProxyRuns compiles the generated shell code
// and runs it as a real process against a live origin — the complete
// §3.2 workflow: visual tool output → generated proxy → adapted pages.
func TestIntegrationGeneratedProxyRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go toolchain unavailable")
	}

	forum := origin.NewForum(origin.DefaultForumConfig())
	originSrv := httptest.NewServer(forum.Handler())
	defer originSrv.Close()

	code, err := gen.GenerateProxyMain(experiments.SpecForForum(originSrv.URL), gen.Options{})
	if err != nil {
		t.Fatal(err)
	}

	root, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	dir, err := os.MkdirTemp(root, "gentest_run_")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = os.RemoveAll(dir) }()
	if err := os.WriteFile(filepath.Join(dir, "main.go"), code, 0o600); err != nil {
		t.Fatal(err)
	}
	bin := filepath.Join(dir, "proxy-bin")
	build := exec.Command(goBin, "build", "-o", bin, "./"+filepath.Base(dir))
	build.Dir = root
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}

	addr := freeAddr(t)
	sessions := t.TempDir()
	cmd := exec.Command(bin, "-addr", addr, "-sessions", sessions)
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
	}()

	jar, _ := cookiejar.New(nil)
	client := &http.Client{Jar: jar, Timeout: 30 * time.Second}
	var lastErr error
	for deadline := time.Now().Add(15 * time.Second); time.Now().Before(deadline); {
		resp, err := client.Get("http://" + addr + "/")
		if err != nil {
			lastErr = err
			time.Sleep(100 * time.Millisecond)
			continue
		}
		body, _ := io.ReadAll(resp.Body)
		_ = resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("generated proxy entry: %d: %s", resp.StatusCode, body)
		}
		if !strings.Contains(string(body), "usemap") {
			t.Fatalf("generated proxy entry lacks image map: %s", body)
		}
		// And a subpage through the generated binary.
		sub := fetchOK(t, client, "http://"+addr+"/subpage/login")
		if !strings.Contains(sub, "loginform") {
			t.Fatal("generated proxy subpage wrong")
		}
		return
	}
	t.Fatalf("generated proxy never became ready: %v", lastErr)
}

func freeAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	_ = l.Close()
	return addr
}
