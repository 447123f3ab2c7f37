// Benchmark harness regenerating the paper's evaluation (run with
// go test -bench=. -benchmem). One benchmark per table/figure plus the
// ablations DESIGN.md calls out:
//
//	BenchmarkTable1       — Table 1 rows (simulated wall-clock + the
//	                        proxy's measured cold view)
//	BenchmarkFigure7Sweep — the Figure 7 sweep against the real proxy
//	BenchmarkFidelity*    — §3.3 image-fidelity ladder
//	BenchmarkPreRenderSpeedup, BenchmarkPageWeight — in-text results
//	BenchmarkFigure5*, BenchmarkFigure6* — the qualitative adaptations
//	BenchmarkAblation*    — DOM parse, serial vs parallel fetch and paint
//	BenchmarkScaleFactor, BenchmarkRenderScaled — the device-scale
//	                        render and its scale step, with allocations
//	BenchmarkProxyEntryWarm, BenchmarkProxyNewUser — a returning and a
//	                        new device's entry view through the proxy
package msite_test

import (
	"io"
	"net/http"
	"net/http/cookiejar"
	"net/http/httptest"
	"testing"
	"time"

	"msite/internal/attr"
	"msite/internal/cache"
	"msite/internal/css"
	"msite/internal/experiments"
	"msite/internal/fetch"
	"msite/internal/html"
	"msite/internal/imaging"
	"msite/internal/layout"
	"msite/internal/origin"
	"msite/internal/progressive"
	"msite/internal/proxy"
	"msite/internal/raster"
	"msite/internal/session"
)

func forumOrigin(b *testing.B) (*origin.Forum, string) {
	b.Helper()
	forum := origin.NewForum(origin.DefaultForumConfig())
	srv := httptest.NewServer(forum.Handler())
	b.Cleanup(srv.Close)
	return forum, srv.URL
}

func entrySource(b *testing.B, url string) string {
	b.Helper()
	page, err := fetch.New(nil).Get(url + "/")
	if err != nil {
		b.Fatal(err)
	}
	return string(page.Body)
}

// BenchmarkTable1 regenerates the whole table each iteration and reports
// every row as a custom metric (seconds), so the bench output IS the
// table.
func BenchmarkTable1(b *testing.B) {
	_, url := forumOrigin(b)
	var rows []experiments.Table1Row
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.Table1(url + "/")
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	for _, r := range rows {
		b.ReportMetric(r.Measured.Seconds(), metricName(r.Label))
	}
}

func metricName(label string) string {
	out := make([]rune, 0, len(label))
	for _, r := range label {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9':
			out = append(out, r)
		case r >= 'A' && r <= 'Z':
			out = append(out, r+('a'-'A'))
		case r == ' ':
			out = append(out, '_')
		}
	}
	return string(out) + "_s"
}

// BenchmarkFigure7Sweep runs a scaled-down sweep against the proxy (250 ms
// windows vs the paper's 1-minute) and reports throughput at the endpoints
// plus the ratio — the paper's 224 → 29,038 req/min, two orders of
// magnitude.
func BenchmarkFigure7Sweep(b *testing.B) {
	_, url := forumOrigin(b)
	var points []experiments.Fig7Point
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		points, err = experiments.Figure7(experiments.Fig7Config{
			OriginURL:   url + "/",
			Window:      250 * time.Millisecond,
			Percentages: []float64{0, 10, 100},
			Reps:        1,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if len(points) == 3 {
		b.ReportMetric(points[0].ReqPerMin, "lightweight_req_per_min")
		b.ReportMetric(points[2].ReqPerMin, "browser_req_per_min")
		if points[2].ReqPerMin > 0 {
			b.ReportMetric(points[0].ReqPerMin/points[2].ReqPerMin, "throughput_ratio")
		}
	}
}

// benchmarkFidelity encodes the full-page snapshot at one ladder level.
func benchmarkFidelity(b *testing.B, f imaging.Fidelity) {
	_, url := forumOrigin(b)
	src := entrySource(b, url)
	doc := html.Tidy(src)
	styler := css.StylerForDocument(doc)
	res := layout.Layout(doc, styler, layout.Viewport{Width: 1024})
	img := raster.Paint(res, raster.Options{Antialias: true})
	var size int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		data, err := imaging.Encode(img, f)
		if err != nil {
			b.Fatal(err)
		}
		size = len(data)
	}
	b.StopTimer()
	b.ReportMetric(float64(size), "bytes")
}

func BenchmarkFidelityHigh(b *testing.B)   { benchmarkFidelity(b, imaging.FidelityHigh) }
func BenchmarkFidelityMedium(b *testing.B) { benchmarkFidelity(b, imaging.FidelityMedium) }
func BenchmarkFidelityLow(b *testing.B)    { benchmarkFidelity(b, imaging.FidelityLow) }
func BenchmarkFidelityThumb(b *testing.B)  { benchmarkFidelity(b, imaging.FidelityThumb) }

// BenchmarkPreRenderSpeedup reports the §3.3 "factor of 5" claim:
// direct BlackBerry load vs cached snapshot load.
func BenchmarkPreRenderSpeedup(b *testing.B) {
	_, url := forumOrigin(b)
	var res *experiments.SpeedupResult
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.PreRenderSpeedup(url + "/")
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(res.Factor, "speedup_factor")
}

// BenchmarkPageWeight reports the §4.2 entry-page weight (paper:
// 224,477 bytes).
func BenchmarkPageWeight(b *testing.B) {
	_, url := forumOrigin(b)
	var w *experiments.PageWeight
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		w, err = experiments.MeasurePageWeight(url + "/")
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(w.TotalBytes), "page_bytes")
	b.ReportMetric(float64(w.Requests), "requests")
}

// BenchmarkFigure5LoginAdaptation measures the Fig. 5 attribute phase:
// locating objects, splitting the login subpage, pulling dependencies,
// copying the logo.
func BenchmarkFigure5LoginAdaptation(b *testing.B) {
	_, url := forumOrigin(b)
	src := entrySource(b, url)
	sp := experiments.SpecForForum(url)
	applier := &attr.Applier{ViewportWidth: 1024}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := applier.Apply(sp, html.Tidy(src))
		if err != nil {
			b.Fatal(err)
		}
		if _, ok := res.FindSubpage("login"); !ok {
			b.Fatal("login subpage missing")
		}
	}
}

// BenchmarkFigure6FragmentExtraction measures the §4.5 proxy action:
// fetch the classified ad page and extract #postingbody with
// css.Select.
func BenchmarkFigure6FragmentExtraction(b *testing.B) {
	classifieds := origin.NewClassifieds(origin.DefaultClassifiedsConfig())
	srv := httptest.NewServer(classifieds.Handler())
	b.Cleanup(srv.Close)

	page, err := fetch.New(nil).Get(srv.URL + "/post/t0001.html")
	if err != nil {
		b.Fatal(err)
	}
	src := string(page.Body)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		doc := html.Tidy(src)
		sel, _ := css.Select(doc, "#postingbody")
		if len(sel) != 1 || html.Render(sel[0]) == "" {
			b.Fatal("no fragment")
		}
	}
}

// --- ablations ---

// BenchmarkAblationTidyDOMPath is the DOM parse of the entry page, what
// the filter phase's "avoiding a DOM parse altogether" (§3.2) saves.
func BenchmarkAblationTidyDOMPath(b *testing.B) {
	_, url := forumOrigin(b)
	src := entrySource(b, url)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		doc := html.Tidy(src)
		if doc.Body() == nil {
			b.Fatal("no body")
		}
	}
}

// latencyForumOrigin serves the forum behind an injected per-request
// delay, so the serial-vs-parallel fetch ablations measure a WAN-shaped
// origin rather than loopback.
func latencyForumOrigin(b *testing.B, d time.Duration) string {
	b.Helper()
	forum := origin.NewForum(origin.DefaultForumConfig())
	srv := httptest.NewServer(experiments.LatencyHandler(forum.Handler(), d))
	b.Cleanup(srv.Close)
	return srv.URL
}

// benchAblationFetch times one batch download of the entry page's
// subresources at the given worker count.
func benchAblationFetch(b *testing.B, workers int) {
	url := latencyForumOrigin(b, 10*time.Millisecond)
	f := fetch.New(nil)
	page, err := f.Get(url + "/")
	if err != nil {
		b.Fatal(err)
	}
	refs := fetch.Subresources(page.Doc(), page.URL)
	if len(refs) == 0 {
		b.Fatal("entry page has no subresources")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, res := range f.FetchAll(refs, workers) {
			if res.Err != nil {
				b.Fatal(res.Err)
			}
		}
	}
}

func BenchmarkAblationFetchSerial(b *testing.B)   { benchAblationFetch(b, 1) }
func BenchmarkAblationFetchParallel(b *testing.B) { benchAblationFetch(b, fetch.DefaultWorkers) }

// benchAblationPaint times one full-page raster on the given number of
// workers (1 = serial baseline, 0 = GOMAXPROCS workers).
func benchAblationPaint(b *testing.B, workers int) {
	_, url := forumOrigin(b)
	src := entrySource(b, url)
	doc := html.Tidy(src)
	styler := css.StylerForDocument(doc)
	res := layout.Layout(doc, styler, layout.Viewport{Width: 1024})
	raster.Paint(res, raster.Options{Workers: workers}) // warm-up
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		raster.Paint(res, raster.Options{Workers: workers})
	}
}

func BenchmarkAblationPaintSerial(b *testing.B)   { benchAblationPaint(b, 1) }
func BenchmarkAblationPaintParallel(b *testing.B) { benchAblationPaint(b, 0) }

// BenchmarkScaleFactor is the snapshot's scale step on its own: the painted
// desktop-width entry page to the device's 0.45. Its allocations are the
// filter's bookkeeping and the scaled frame, whatever the pixel count.
func BenchmarkScaleFactor(b *testing.B) {
	_, url := forumOrigin(b)
	doc := html.Tidy(entrySource(b, url))
	res := layout.Layout(doc, css.StylerForDocument(doc), layout.Viewport{Width: 1024})
	frame := raster.Paint(res, raster.Options{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		imaging.ScaleFactor(frame, 0.45)
	}
}

// BenchmarkRenderScaled is the whole device-scale render — paint in bands,
// fold, encode — as the snapshot and the pre-rendered subpages run it; B/op
// holds the scaled frame and the workers' buffers, never the desktop-size
// one.
func BenchmarkRenderScaled(b *testing.B) {
	_, url := forumOrigin(b)
	doc := html.Tidy(entrySource(b, url))
	res := layout.Layout(doc, css.StylerForDocument(doc), layout.Viewport{Width: 1024})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := progressive.Render(res, progressive.Config{Fidelity: imaging.FidelityLow, Scale: 0.45}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProxyEntryWarm measures the full proxy path for a returning
// user: session lookup, cached adaptation, cached snapshot, overlay
// generation — the steady-state per-request cost of the m.Site
// deployment.
func BenchmarkProxyEntryWarm(b *testing.B) {
	_, url := forumOrigin(b)
	sessions, err := session.NewManager(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	p, err := proxy.New(proxy.Config{
		Spec:     experiments.SpecForForum(url),
		Sessions: sessions,
		Cache:    cache.New(),
	})
	if err != nil {
		b.Fatal(err)
	}
	srv := httptest.NewServer(p)
	b.Cleanup(srv.Close)
	jar, err := cookiejar.New(nil)
	if err != nil {
		b.Fatal(err)
	}
	client := &http.Client{Jar: jar}
	warm := func() {
		resp, err := client.Get(srv.URL + "/")
		if err != nil {
			b.Fatal(err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		_ = resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d", resp.StatusCode)
		}
	}
	warm()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		warm()
	}
}

// BenchmarkProxyNewUser measures the first-visit cost: fresh session,
// full adaptation pass, shared-cache snapshot hit.
func BenchmarkProxyNewUser(b *testing.B) {
	_, url := forumOrigin(b)
	sessions, err := session.NewManager(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	p, err := proxy.New(proxy.Config{
		Spec:     experiments.SpecForForum(url),
		Sessions: sessions,
		Cache:    cache.New(),
	})
	if err != nil {
		b.Fatal(err)
	}
	srv := httptest.NewServer(p)
	b.Cleanup(srv.Close)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		jar, err := cookiejar.New(nil)
		if err != nil {
			b.Fatal(err)
		}
		client := &http.Client{Jar: jar}
		resp, err := client.Get(srv.URL + "/")
		if err != nil {
			b.Fatal(err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		_ = resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d", resp.StatusCode)
		}
	}
}
