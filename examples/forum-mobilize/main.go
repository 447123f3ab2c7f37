// Forum-mobilize: the full §4.2–4.3 deployment scenario.
//
// It applies the paper's evaluation spec to the forum entry page: a
// 60-minute shared low-fidelity snapshot with an image-map overlay, the
// Fig. 5 login subpage (page splitting + logo copy with mobile image +
// CSS/JS dependency injection), the nav-links vertical rewrite loaded
// via AJAX, a mobile banner replacement, and a pre-rendered searchable
// forums subpage. The snapshot image and the Fig. 5 subpage are written
// to ./out for inspection.
//
// Run: go run ./examples/forum-mobilize
package main

import (
	"fmt"
	"io"
	"net/http"
	"net/http/cookiejar"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"

	"msite/internal/core"
	"msite/internal/experiments"
	"msite/internal/origin"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "forum-mobilize:", err)
		os.Exit(1)
	}
}

func run() error {
	forum := origin.NewForum(origin.DefaultForumConfig())
	originSrv := httptest.NewServer(forum.Handler())
	defer originSrv.Close()

	sp := experiments.SpecForForum(originSrv.URL)
	sessionRoot, err := os.MkdirTemp("", "msite-forum-*")
	if err != nil {
		return err
	}
	defer func() { _ = os.RemoveAll(sessionRoot) }()

	fw, err := core.New(sp, core.Config{SessionRoot: sessionRoot})
	if err != nil {
		return err
	}
	proxySrv := httptest.NewServer(fw.Handler())
	defer proxySrv.Close()

	jar, err := cookiejar.New(nil)
	if err != nil {
		return err
	}
	client := &http.Client{Jar: jar}

	outDir := "out"
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}

	// --- Entry page: cached snapshot + image map (§4.3) ---
	entry, err := get(client, proxySrv.URL+"/")
	if err != nil {
		return err
	}
	fmt.Println("== mobile entry page ==")
	fmt.Printf("overlay HTML: %d bytes\n", len(entry))
	fmt.Printf("image-map areas: %d (login, nav, forums)\n", strings.Count(entry, "<area"))
	snapshotPath := extractAttr(entry, "img", "src")
	snapshot, err := get(client, proxySrv.URL+snapshotPath)
	if err != nil {
		return err
	}
	fmt.Printf("snapshot image: %d bytes (paper band: 25–50 KB)\n", len(snapshot))
	if err := os.WriteFile(filepath.Join(outDir, "snapshot.jpg"), []byte(snapshot), 0o644); err != nil {
		return err
	}

	// --- Fig. 5: the login subpage ---
	login, err := get(client, proxySrv.URL+"/subpage/login")
	if err != nil {
		return err
	}
	fmt.Println("\n== Fig. 5 login subpage ==")
	fmt.Printf("mobile logo copied to top:   %v\n", strings.Contains(login, "/m/logo.gif"))
	fmt.Printf("login form moved in:         %v\n", strings.Contains(login, `id="loginform"`))
	fmt.Printf("CSS dependency injected:     %v\n", strings.Contains(login, "<style"))
	if err := os.WriteFile(filepath.Join(outDir, "login-subpage.html"), []byte(login), 0o644); err != nil {
		return err
	}

	// --- Pre-rendered searchable forums subpage ---
	forums, err := get(client, proxySrv.URL+"/subpage/forums")
	if err != nil {
		return err
	}
	fmt.Println("\n== pre-rendered forums subpage ==")
	fmt.Printf("served as single graphic:    %v\n", strings.Contains(forums, "/asset/forums.png"))
	fmt.Printf("search index shipped:        %v\n", strings.Contains(forums, "msiteSearchWords"))
	fmt.Printf("binary search function:      %v\n", strings.Contains(forums, "function msiteSearch"))

	// --- AJAX nav loading (§4.3 asynchronous subpage) ---
	nav, err := get(client, proxySrv.URL+"/subpage/nav")
	if err != nil {
		return err
	}
	fmt.Println("\n== nav subpage (loaded into a div via AJAX) ==")
	fmt.Printf("vertical 2-column rewrite:   %v\n", strings.Contains(nav, "msite-nav"))

	// --- Rich-media thumbnail (shop-tour Flash box) ---
	thumb, err := get(client, proxySrv.URL+"/asset/shoptour_thumb.jpg")
	if err != nil {
		return err
	}
	fmt.Println("\n== rich-media thumbnail ==")
	fmt.Printf("Flash object replaced by %d-byte linked thumbnail\n", len(thumb))

	// --- The §4.4 showpic action through the proxy ---
	pic, err := get(client, proxySrv.URL+"/ajax?action=1&p=9")
	if err != nil {
		return err
	}
	fmt.Println("\n== AJAX action (showpic) ==")
	fmt.Printf("fragment extracted (#pic):   %v\n", strings.Contains(pic, "photo_9"))

	// --- Amortization: a second user shares the cached snapshot ---
	jar2, err := cookiejar.New(nil)
	if err != nil {
		return err
	}
	client2 := &http.Client{Jar: jar2}
	if _, err := get(client2, proxySrv.URL+"/"); err != nil {
		return err
	}
	stats := fw.ProxyStats()
	fmt.Println("\n== cross-session amortization ==")
	fmt.Printf("users served: 2, snapshot renders: %d, cache hits: %d\n",
		stats.SnapshotRenders, stats.SnapshotHits)
	fmt.Printf("\nartifacts written to %s/\n", outDir)
	return nil
}

func get(client *http.Client, url string) (string, error) {
	resp, err := client.Get(url)
	if err != nil {
		return "", err
	}
	defer func() { _ = resp.Body.Close() }()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("%s: status %d", url, resp.StatusCode)
	}
	return string(body), nil
}

// extractAttr pulls the first attr value for a tag out of markup — a
// tiny helper so the example stays dependency-light.
func extractAttr(markup, tag, attr string) string {
	open := strings.Index(markup, "<"+tag)
	if open < 0 {
		return ""
	}
	rest := markup[open:]
	marker := attr + `="`
	i := strings.Index(rest, marker)
	if i < 0 {
		return ""
	}
	rest = rest[i+len(marker):]
	j := strings.IndexByte(rest, '"')
	if j < 0 {
		return ""
	}
	return rest[:j]
}
