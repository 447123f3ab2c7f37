// Weather-glance: the paper's intro motivation — "A mobile visit to an
// online weather site ... should probably focus on providing local
// weather ... as quickly as possible" (§4.2).
//
// The origin is a marketing-heavy weather page where current conditions
// sit below the fold. The adaptation relocates the conditions box to the
// top, strips the promotional content, splits the 7-day forecast table
// into its own subpage, and — because this spec disables the snapshot —
// serves the adapted HTML directly.
//
// Run: go run ./examples/weather-glance
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
	"msite/internal/spec"
)

const weatherPage = `<!DOCTYPE html>
<html><head><title>StormCenter 5000 — Your Weather Authority</title>
<style>
#hero { background-color: #113355; color: white; height: 220px }
#conditions { border: 1px solid #888888; background-color: #eef2ff; padding: 6px }
.promo { background-color: #ffe9b0; padding: 8px }
</style></head>
<body>
<div id="hero"><h1>StormCenter 5000</h1><p>Download our desktop gadget! Watch our 24/7 video stream!</p></div>
<div class="promo">Sign up for StormCenter Plus Premium for exclusive radar loops and lightning alerts.</div>
<div class="promo">Advertisement: new 4-door sedans near you.</div>
<div id="conditions">
  <h2>Williamsburg, VA — Now</h2>
  <p><b>72F</b> Partly cloudy, humidity 61%, wind SW 8 mph</p>
</div>
<table id="forecast" width="100%">
  <tr><th>Day</th><th>High</th><th>Low</th><th>Sky</th></tr>
  <tr><td>Tuesday</td><td>74</td><td>58</td><td>Sunny</td></tr>
  <tr><td>Wednesday</td><td>77</td><td>60</td><td>Partly cloudy</td></tr>
  <tr><td>Thursday</td><td>71</td><td>59</td><td>Showers</td></tr>
  <tr><td>Friday</td><td>69</td><td>55</td><td>Storms</td></tr>
  <tr><td>Saturday</td><td>73</td><td>54</td><td>Sunny</td></tr>
</table>
<div class="promo">More premium upsells and partner offers down here.</div>
</body></html>`

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "weather-glance:", err)
		os.Exit(1)
	}
}

func run() error {
	originSrv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		_, _ = w.Write([]byte(weatherPage))
	}))
	defer originSrv.Close()

	sp := &spec.Spec{
		Name: "stormcenter", Origin: originSrv.URL + "/", ViewportWidth: 1024,
		Objects: []spec.Object{
			{Name: "promos", Selector: "div.promo", Attributes: []spec.Attribute{
				{Type: spec.AttrRemove},
			}},
			{Name: "hero", Selector: "#hero", Attributes: []spec.Attribute{
				{Type: spec.AttrReplace, Params: map[string]string{
					"html": `<div id="brand"><b>StormCenter 5000</b></div>`,
				}},
			}},
			{Name: "forecast", Selector: "#forecast", Attributes: []spec.Attribute{
				{Type: spec.AttrSubpage, Params: map[string]string{"title": "7-day forecast"}},
			}},
			{Name: "conditions", Selector: "#conditions", Attributes: []spec.Attribute{
				{Type: spec.AttrRelocate, Params: map[string]string{"target": "#brand", "position": "after"}},
				{Type: spec.AttrInsertHTML, Params: map[string]string{
					"position": "after",
					"html":     `<p><a href="/subpage/forecast">7-day forecast &raquo;</a></p>`,
				}},
			}},
		},
	}

	sessionRoot, err := os.MkdirTemp("", "msite-weather-*")
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

	entry, err := get(client, proxySrv.URL+"/")
	if err != nil {
		return err
	}
	fmt.Println("== adapted entry page (glanceable weather) ==")
	fmt.Printf("origin page:   %d bytes with %d promo blocks\n",
		len(weatherPage), strings.Count(weatherPage, `class="promo"`))
	fmt.Printf("adapted page:  %d bytes, promos removed: %v\n",
		len(entry), !strings.Contains(entry, `class="promo"`))
	brandIdx := strings.Index(entry, `id="brand"`)
	condIdx := strings.Index(entry, "Williamsburg")
	linkIdx := strings.Index(entry, "/subpage/forecast")
	fmt.Printf("conditions right after brand, before forecast link: %v\n",
		brandIdx >= 0 && brandIdx < condIdx && condIdx < linkIdx)
	fmt.Printf("forecast split out: %v\n", !strings.Contains(entry, "Wednesday"))

	forecast, err := get(client, proxySrv.URL+"/subpage/forecast")
	if err != nil {
		return err
	}
	fmt.Println("\n== forecast subpage ==")
	fmt.Printf("rows present: %v (%d bytes)\n", strings.Contains(forecast, "Thursday"), len(forecast))
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
