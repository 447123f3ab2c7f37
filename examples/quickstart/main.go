// Quickstart: the minimal end-to-end m.Site flow.
//
// It starts the synthetic forum origin, writes a two-object adaptation
// spec, serves the adaptation proxy, and fetches the mobile entry page
// and a generated subpage through it.
//
// Run: go run ./examples/quickstart
package main

import (
	"fmt"
	"io"
	"net/http"
	"net/http/cookiejar"
	"net/http/httptest"
	"os"
	"strings"

	"msite/internal/core"
	"msite/internal/origin"
	"msite/internal/spec"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "quickstart:", err)
		os.Exit(1)
	}
}

func run() error {
	// 1. An origin site to mobilize: the vBulletin-analog forum.
	forum := origin.NewForum(origin.DefaultForumConfig())
	originSrv := httptest.NewServer(forum.Handler())
	defer originSrv.Close()
	fmt.Printf("origin:  %s (%d-byte entry page)\n", originSrv.URL, forum.EntryPageBytes())

	// 2. The administrator selects objects and assigns attributes —
	//    here: a cached snapshot entry page, the login form split into
	//    its own subpage, and the 728px leaderboard replaced with a
	//    mobile banner.
	sp := &spec.Spec{
		Name: "quickstart", Origin: originSrv.URL + "/", ViewportWidth: 1024,
		Snapshot: spec.SnapshotSpec{
			Enabled: true, Fidelity: "low", Scale: 0.45, CacheTTLSeconds: 3600, Shared: true,
		},
		Objects: []spec.Object{
			{Name: "login", Selector: "#loginform", Attributes: []spec.Attribute{
				{Type: spec.AttrSubpage, Params: map[string]string{"title": "Log in"}},
			}},
			{Name: "banner", Selector: "#banner", Attributes: []spec.Attribute{
				{Type: spec.AttrReplace, Params: map[string]string{
					"html": `<img src="/ads/mobile.gif" width="300" height="50" alt="ad">`,
				}},
			}},
		},
	}

	// 3. Wire the framework and serve the proxy.
	sessionRoot, err := os.MkdirTemp("", "msite-quickstart-*")
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
	fmt.Printf("proxy:   %s\n\n", proxySrv.URL)

	// 4. A mobile client visits: snapshot entry page with an image map.
	jar, err := cookiejar.New(nil)
	if err != nil {
		return err
	}
	client := &http.Client{Jar: jar}
	entry, err := get(client, proxySrv.URL+"/")
	if err != nil {
		return err
	}
	fmt.Printf("entry page: %d bytes, image map present: %v\n",
		len(entry), strings.Contains(entry, "usemap"))

	// 5. Clicking the login region loads the generated subpage.
	sub, err := get(client, proxySrv.URL+"/subpage/login")
	if err != nil {
		return err
	}
	fmt.Printf("login subpage: %d bytes, form present: %v\n",
		len(sub), strings.Contains(sub, "loginform"))

	stats := fw.ProxyStats()
	fmt.Printf("\nproxy stats: %d requests, %d adaptation passes, %d snapshot renders\n",
		stats.Requests, stats.Adaptations, stats.SnapshotRenders)
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
