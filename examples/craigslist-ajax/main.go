// Craigslist-ajax: the §4.5 / Fig. 6 scenario.
//
// CraigsList ordinarily requires no AJAX: every ad click is a full page
// load and a tiny back button. The adaptation splits the iPad view into
// two panes — the listing on the left, the selected ad on the right —
// by rewriting each ad link into a proxy action; clicking dispatches an
// asynchronous call the proxy satisfies by fetching the ad page,
// extracting #postingbody (the action's extract selector, found with
// css.Select), and returning the fragment.
//
// Run: go run ./examples/craigslist-ajax
package main

import (
	"fmt"
	"io"
	"net/http"
	"net/http/cookiejar"
	"net/http/httptest"
	"os"
	"regexp"
	"strings"

	"msite/internal/core"
	"msite/internal/origin"
	"msite/internal/spec"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "craigslist-ajax:", err)
		os.Exit(1)
	}
}

func run() error {
	classifieds := origin.NewClassifieds(origin.DefaultClassifiedsConfig())
	originSrv := httptest.NewServer(classifieds.Handler())
	defer originSrv.Close()

	// The adaptation spec: two-pane layout via inserted markup, ad links
	// rewritten to proxy actions, fragments extracted from the ad pages
	// and cached across clients.
	sp := &spec.Spec{
		Name:          "craigslist-ipad",
		Origin:        originSrv.URL + "/search/tools",
		ViewportWidth: 1024, // iPad 1 landscape
		Objects: []spec.Object{
			{
				Name:     "listings",
				Selector: "#listings",
				Attributes: []spec.Attribute{
					// Left pane styling + the right-hand detail pane.
					{Type: spec.AttrInsertHTML, Params: map[string]string{
						"position": "before",
						"html": `<style>
#listings { float: left; width: 44%; height: 700px }
#msite-pane { float: right; width: 52%; background-color: white; border: 1px solid #999999 }
</style>`,
					}},
					{Type: spec.AttrAJAXify},
				},
			},
			{
				Name:     "sidebar",
				Selector: "#sidebar",
				Attributes: []spec.Attribute{
					{Type: spec.AttrRelocate, Params: map[string]string{
						"target": "#cat-title", "position": "after"}},
				},
			},
		},
		Actions: []spec.Action{
			{
				ID:              1,
				Match:           `/post/(\w+)\.html`,
				Target:          originSrv.URL + "/post/$1.html",
				Extract:         "#postingbody",
				CacheTTLSeconds: 300,
			},
		},
	}

	sessionRoot, err := os.MkdirTemp("", "msite-cl-*")
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

	// The adapted category page (snapshot disabled: iPads render HTML
	// fine; the win here is interaction structure, not pre-rendering).
	page, err := get(client, proxySrv.URL+"/")
	if err != nil {
		return err
	}
	fmt.Println("== adapted category page (two-pane iPad layout) ==")
	rewritten := regexp.MustCompile(`href="/ajax\?action=1&(?:amp;)?p=`).FindAllString(page, -1)
	fmt.Printf("ad links rewritten to proxy actions: %d of 100\n", len(rewritten))
	fmt.Printf("detail pane injected:                %v\n", strings.Contains(page, `id="msite-pane"`))
	fmt.Printf("client runtime injected:             %v\n", strings.Contains(page, "function msiteLoad"))
	fmt.Printf("two-pane stylesheet present:         %v\n", strings.Contains(page, "float: right"))

	// Clicking an ad: the asynchronous call the link now makes.
	param := extractFirstParam(page)
	fragment, err := get(client, proxySrv.URL+"/ajax?action=1&p="+param)
	if err != nil {
		return err
	}
	full, err := get(client, originSrv.URL+"/post/"+param+".html")
	if err != nil {
		return err
	}
	fmt.Println("\n== one ad click ==")
	fmt.Printf("full origin ad page:   %d bytes\n", len(full))
	fmt.Printf("AJAX fragment served:  %d bytes (#postingbody only)\n", len(fragment))
	fmt.Printf("fragment is the ad body: %v\n", strings.Contains(fragment, "postingbody"))

	// Fragment caching across clients (CacheTTLSeconds=300).
	if _, err := get(client, proxySrv.URL+"/ajax?action=1&p="+param); err != nil {
		return err
	}
	cs := fw.CacheStats()
	fmt.Printf("\nfragment cache: %d hits, %d fills\n", cs.Hits, cs.Fills)
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

var paramRe = regexp.MustCompile(`action=1&(?:amp;)?p=(\w+)`)

func extractFirstParam(page string) string {
	m := paramRe.FindStringSubmatch(page)
	if m == nil {
		return "t0000"
	}
	return m[1]
}
