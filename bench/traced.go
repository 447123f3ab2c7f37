package main

import (
	"context"
	"fmt"
	"image"
	"net/url"
	"os"
	"path/filepath"
	"time"

	"msite/internal/attr"
	"msite/internal/cache"
	"msite/internal/css"
	"msite/internal/dom"
	"msite/internal/fetch"
	"msite/internal/filter"
	"msite/internal/html"
	"msite/internal/imaging"
	"msite/internal/layout"
	"msite/internal/obs"
	"msite/internal/proxy"
	"msite/internal/raster"
	"msite/internal/session"
	"msite/internal/spec"
	"msite/internal/store"
)

// pipelineSpans are the replayed layer calls that make up one cold build,
// in pipeline order; their self times are what a cold view is attributed
// to.
var pipelineSpans = []string{
	"fetch.entry", "filter.apply", "html.tidy", "fetch.subres", "attr.apply",
	"attr.absolutize", "attr.serialize", "html.render", "attr.minimal", "store.put",
	"css.styler", "layout.layout", "raster.paint", "imaging.scale", "imaging.encode", "cache.put",
}

// stageNames are the program's own stage histograms (obs.StageHistogram).
var stageNames = []string{"fetch", "filter", "subres", "attr", "subpage_split", "layout", "raster", "encode", "adapt_total"}

// buildCounts are the counts one replayed build yields.
type buildCounts struct {
	subpages, boxes, snapshotBytes int
}

// replayBuild runs the layers' public functions in the order the proxy's
// build and snapshot paths call them, on bytes fetched from the same
// origin, with a span around each call.
func replayBuild(tr *tracer, viewID int, sp *spec.Spec, st *store.Store, l1 *cache.Cache, bundle []byte) (buildCounts, error) {
	var counts buildCounts
	ctx := context.Background()
	root := tr.begin("replay", -1, viewID)
	defer tr.end(root, "")
	timed := func(name string, fn func()) {
		id := tr.begin(name, root, viewID)
		fn()
		tr.end(id, "")
	}
	var err error

	f := fetch.New(nil)
	var page *fetch.Page
	timed("fetch.entry", func() { page, err = f.GetContext(ctx, sp.Origin) })
	if err != nil {
		return counts, err
	}
	var src string
	timed("filter.apply", func() { src, err = filter.Apply(string(page.Body), sp.Filters) })
	if err != nil {
		return counts, err
	}
	var doc *dom.Node
	timed("html.tidy", func() { doc = html.Tidy(src) })
	images := make(map[string]image.Image)
	timed("fetch.subres", func() {
		_, err = f.InlineStylesheetsContext(ctx, doc, page.URL)
		base, _ := url.Parse(page.URL)
		var srcs, abs []string
		seen := make(map[string]bool)
		for _, img := range doc.Elements("img") {
			s := img.AttrOr("src", "")
			if u, perr := base.Parse(s); perr == nil && s != "" && !seen[s] {
				seen[s] = true
				srcs, abs = append(srcs, s), append(abs, u.String())
			}
		}
		for i, res := range f.FetchAllContext(ctx, abs, 0) {
			if res.Err != nil {
				continue
			}
			if decoded, derr := imaging.Decode(res.Page.Body); derr == nil {
				images[srcs[i]], images[abs[i]] = decoded, decoded
			}
		}
	})
	if err != nil {
		return counts, err
	}

	applier := &attr.Applier{
		ViewportWidth: sp.ViewportWidth,
		SubpageURL:    func(name string) string { return "/subpage/" + url.PathEscape(name) },
		AssetURL:      func(name string) string { return "/asset/" + url.PathEscape(name) },
		AJAXEndpoint:  "/ajax",
		Images:        images,
	}
	var result *attr.Result
	timed("attr.apply", func() { result, err = applier.Apply(sp, doc) })
	if err != nil {
		return counts, err
	}
	counts.subpages = len(result.Subpages)
	timed("attr.absolutize", func() {
		skip := []string{"/subpage/", "/asset/", "/ajax", "/login", "/logout", "/auth"}
		attr.AbsolutizeURLs(result.Doc, page.URL, skip...)
		for _, sub := range result.Subpages {
			attr.AbsolutizeURLs(sub.Doc, page.URL, skip...)
		}
	})
	timed("attr.serialize", func() {
		for _, sub := range result.Subpages {
			_ = attr.SerializeSubpage(sub)
		}
	})
	var mainHTML string
	timed("html.render", func() { mainHTML = html.Render(result.Doc) })
	timed("attr.minimal", func() { _ = attr.MinimalMarkupHTML(sp.Name, result.Doc) })
	timed("store.put", func() { err = st.Put("bundle", bundle, "application/x-msite-bundle", time.Hour) })
	if err != nil {
		return counts, err
	}

	// The snapshot path re-parses the adapted main document.
	var doc2 *dom.Node
	timed("html.tidy", func() { doc2 = html.Tidy(mainHTML) })
	var styler *css.Styler
	timed("css.styler", func() { styler = css.StylerForDocument(doc2) })
	var res *layout.Result
	timed("layout.layout", func() { res = layout.Layout(doc2, styler, layout.Viewport{Width: sp.ViewportWidth}) })
	counts.boxes = res.CountBoxes()
	var img *image.RGBA
	timed("raster.paint", func() { img = raster.Paint(res, raster.Options{Images: images}) })
	var scaled *image.RGBA
	timed("imaging.scale", func() { scaled = imaging.ScaleFactor(img, sp.Snapshot.Scale) })
	var encoded []byte
	timed("imaging.encode", func() { encoded, err = imaging.Encode(scaled, imaging.FidelityLow) })
	if err != nil {
		return counts, err
	}
	counts.snapshotBytes = len(encoded)
	timed("cache.put", func() { l1.Put("snapshot", cache.Entry{Data: encoded, MIME: "image/jpeg"}, time.Hour) })
	raster.Release(img)

	// Not a pipeline step: the same paint on one worker, to separate what
	// the band parallelism saves in latency from what it costs in CPU.
	id := tr.begin("raster.paint_serial", -1, viewID)
	serial := raster.Paint(res, raster.Options{Images: images, Workers: 1})
	tr.end(id, "")
	raster.Release(serial)
	return counts, nil
}

// perOp times n calls of fn and returns the mean in the given unit
// (nanoseconds per unit).
func perOp(n int, unit float64, fn func(i int)) float64 {
	start := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	return float64(time.Since(start).Nanoseconds()) / float64(n) / unit
}

// microLayers times the small layers a warm request crosses, each on an
// instance of its own with payloads the size the program really stores.
func microLayers(dir string, bundle, snapshot []byte, st *store.Store, l1 *cache.Cache) (map[string]metric, error) {
	out := make(map[string]metric)
	const us, ms = 1e3, 1e6

	entry := cache.Entry{Data: snapshot, MIME: "image/jpeg"}
	out["cache.put_us"] = metric{perOp(2000, us, func(i int) { l1.Put(fmt.Sprintf("k%d", i%64), entry, time.Hour) }), "us"}
	out["cache.get_hit_us"] = metric{perOp(20000, us, func(i int) { _, _ = l1.Get(fmt.Sprintf("k%d", i%64)) }), "us"}

	var err error
	out["store.put_ms"] = metric{perOp(8, ms, func(i int) {
		if perr := st.Put(fmt.Sprintf("b%d", i), bundle, "application/x-msite-bundle", time.Hour); perr != nil {
			err = perr
		}
	}), "ms"}
	out["store.get_ms"] = metric{perOp(8, ms, func(i int) {
		if _, _, _, ok := st.Get(fmt.Sprintf("b%d", i)); !ok {
			err = fmt.Errorf("store lost b%d", i)
		}
	}), "ms"}
	if err != nil {
		return nil, err
	}

	mgr, err := session.NewManager(filepath.Join(dir, "micro-sessions"))
	if err != nil {
		return nil, err
	}
	ids := make([]string, 200)
	out["session.create_us"] = metric{perOp(len(ids), us, func(i int) {
		s, cerr := mgr.Create()
		if cerr != nil {
			err = cerr
			return
		}
		ids[i] = s.ID
	}), "us"}
	if err != nil {
		return nil, err
	}
	out["session.delete_us"] = metric{perOp(len(ids), us, func(i int) { _ = mgr.Delete(ids[i]) }), "us"}

	// The label shapes are the proxy's own, per request.
	reg := obs.NewRegistry()
	out["obs.counter_inc_ns"] = metric{perOp(200000, 1, func(int) {
		reg.Counter("msite_proxy_requests_total", "handler", "entry", "site", "sawdust").Inc()
	}), "ns"}
	out["obs.histogram_observe_ns"] = metric{perOp(200000, 1, func(int) {
		reg.Histogram("msite_http_request_seconds", "handler", "entry").Observe(0.001)
	}), "ns"}
	out["obs.trace_ns"] = metric{perOp(50000, 1, func(int) {
		_, tr := reg.StartTrace(context.Background(), "entry")
		tr.End()
	}), "ns"}
	return out, nil
}

// dirKB is the size of the files under dir.
func dirKB(dir string) float64 {
	var total int64
	_ = filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() {
			total += info.Size()
		}
		return nil
	})
	return float64(total) / 1024
}

// census runs, in the process the workload has warmed, a few cold views
// (for the origin's side of a build and the in-process cold view time,
// which it returns in ms), each followed by one replayed build so that
// both see the same state of the box, and then new and returning devices,
// so every request kind has samples whatever the workload is.
func (b *bench) census(local *localSUT, layer map[string]metric, replay func() error) (coldMs []float64, err error) {
	c0 := b.clients[0]
	var buildReqs, buildBytes, buildWaves []float64
	last := ""
	for i := 0; i < b.o.censusViews; i++ {
		if err := local.reset(last); err != nil {
			return nil, err
		}
		mark := b.origin.hits()
		p := newPhone()
		v := c0.b.view(p, viewBlock[3][:], "proxy.entry_cold", int(b.viewSeq.Add(1)), false)
		if v.err != nil {
			return nil, fmt.Errorf("census cold view: %w", v.err)
		}
		last = p.sessionID()
		hits := b.origin.since(mark)
		var bytes int
		for _, h := range hits {
			bytes += h.bytes
		}
		coldMs = append(coldMs, float64(v.dur)/1e6)
		buildReqs = append(buildReqs, float64(len(hits)))
		buildBytes = append(buildBytes, float64(bytes))
		buildWaves = append(buildWaves, float64(serialWaves(hits)))
		if err := replay(); err != nil {
			return nil, fmt.Errorf("replay: %w", err)
		}
	}
	sessionsRoot := filepath.Join(local.dir, "sessions")
	var diskKB []float64
	for i := 0; i < b.o.censusViews; i++ {
		p := newPhone()
		for _, span := range []string{"proxy.entry_new_session", "proxy.entry_warm"} {
			if v := c0.b.view(p, subpageNames, span, int(b.viewSeq.Add(1)), false); v.err != nil {
				return nil, fmt.Errorf("census view: %w", v.err)
			}
		}
		diskKB = append(diskKB, dirKB(filepath.Join(sessionsRoot, p.sessionID())))
		if err := local.retire(p.sessionID()); err != nil {
			return nil, err
		}
	}
	layer["fetch.origin_requests_per_build"] = metric{median(buildReqs), "count"}
	layer["fetch.origin_bytes_per_build"] = metric{median(buildBytes), "B"}
	layer["fetch.serial_waves_per_build"] = metric{median(buildWaves), "count"}
	layer["session.disk_kb_per_session"] = metric{median(diskKB), "KB"}
	return coldMs, nil
}

// runTraced is the per-layer run: one process, no socket between device
// and proxy, a span around every call into a layer. It drives the
// workload's views through Framework.Handler().ServeHTTP, replays the
// cold pipeline layer by layer, and times the small layers on their own.
func runTraced(w workload, o options) (*result, error) {
	origin, err := startOrigin(o.seed, w.originDelay)
	if err != nil {
		return nil, err
	}
	defer origin.close()
	local, err := newLocalSUT(origin.url, filepath.Join(o.workDir, "sut"))
	if err != nil {
		return nil, err
	}
	defer func() { _ = local.close() }()
	tr := newTracer()
	b := &bench{w: w, o: o, origin: origin, sut: local, tr: tr}
	b.newLink = func() link { return &handlerLink{h: local.fw.Handler()} }
	if err := b.setUp(); err != nil {
		return nil, err
	}
	defer b.closeClients()
	layer := make(map[string]metric)

	// The workload itself, rounds alternately traced and not: the
	// difference is what recording spans costs.
	m, err := b.measure(o.seconds/2, 2, func(i int) {
		for _, c := range b.clients {
			if i%2 == 0 {
				c.b.tr = tr
			} else {
				c.b.tr = nil
			}
		}
	})
	if err != nil {
		return nil, err
	}
	views, failed, _ := m.totals()
	var tracedMs, untracedMs []float64
	for i, r := range m.rounds {
		if i%2 == 0 {
			tracedMs = append(tracedMs, median(r.durMs))
		} else {
			untracedMs = append(untracedMs, median(r.durMs))
		}
	}
	for name, v := range m.layerMetrics() {
		layer[name] = v
	}
	layer["trace.overhead_pct"] = metric{(median(tracedMs) - median(untracedMs)) / median(untracedMs) * 100, "%"}
	n := float64(views)
	layer["proxy.adaptations_per_view"] = metric{float64(m.after.Adaptations-m.before.Adaptations) / n, "1"}
	layer["proxy.snapshot_renders_per_view"] = metric{float64(m.after.SnapshotRenders-m.before.SnapshotRenders) / n, "1"}
	layer["proxy.bundle_reuses_per_view"] = metric{float64(m.after.BundleReuses-m.before.BundleReuses) / n, "1"}
	layer["session.file_syscalls_per_view"] = metric{float64(m.after.FileSyscalls-m.before.FileSyscalls) / n, "count"}
	lookups := float64(m.after.CacheHits - m.before.CacheHits + m.after.CacheMisses - m.before.CacheMisses)
	ratio := 0.0
	if lookups > 0 {
		ratio = float64(m.after.CacheHits-m.before.CacheHits) / lookups
	}
	layer["cache.hit_ratio"] = metric{ratio, "1"}
	layer["runtime.gc_cycles_per_kview"] = metric{float64(m.after.NumGC-m.before.NumGC) / n * 1000, "count"}
	layer["runtime.gc_pause_ms_per_kview"] = metric{float64(m.after.PauseTotalNs-m.before.PauseTotalNs) / 1e6 / n * 1000, "ms"}

	for _, c := range b.clients {
		c.b.tr = tr
	}

	// The program's own stage histograms, as mean ms per observation.
	snap := local.fw.Obs().Snapshot()
	for _, stage := range stageNames {
		h, _ := snap.Histogram(obs.StageHistogram, "stage", stage)
		meanMs := 0.0
		if h.Count > 0 {
			meanMs = h.Sum / float64(h.Count) * 1000
		}
		layer["proxy.stage_"+stage+"_ms"] = metric{meanMs, "ms"}
	}

	// Cold views and the cold pipeline replayed layer by layer, turn and
	// turn about; then the small layers.
	sp := local.fw.Spec()
	key, err := proxy.BundleKeyForSpec(sp, 0)
	if err != nil {
		return nil, err
	}
	bundleEntry, ok := local.fw.Cache().Get(key)
	if !ok {
		return nil, fmt.Errorf("no bundle under %s after a build", key)
	}
	snapEntry, ok := local.fw.Cache().Get("snapshot:" + sp.Name)
	if !ok {
		return nil, fmt.Errorf("no shared snapshot after a build")
	}
	layer["proxy.bundle_bytes"] = metric{float64(len(bundleEntry.Data)), "B"}
	st, err := store.Open(store.Options{Dir: filepath.Join(o.workDir, "replay-store")})
	if err != nil {
		return nil, err
	}
	defer func() { _ = st.Close() }()
	l1 := cache.New()
	defer l1.Close()
	var counts buildCounts
	coldMs, err := b.census(local, layer, func() (err error) {
		counts, err = replayBuild(tr, int(b.viewSeq.Add(1)), sp, st, l1, bundleEntry.Data)
		return err
	})
	if err != nil {
		return nil, err
	}
	layer["attr.subpages"] = metric{float64(counts.subpages), "count"}
	layer["layout.boxes"] = metric{float64(counts.boxes), "count"}
	layer["imaging.snapshot_bytes"] = metric{float64(counts.snapshotBytes), "B"}
	micro, err := microLayers(o.workDir, bundleEntry.Data, snapEntry.Data, st, l1)
	if err != nil {
		return nil, err
	}
	for name, v := range micro {
		layer[name] = v
	}

	// Spans go to disk and come back before any self time is derived, so
	// the file is known to carry everything the numbers need.
	path := filepath.Join(o.outDir, "trace-"+w.name+".json")
	if err := writeTrace(path, tr.snapshot()); err != nil {
		return nil, err
	}
	spans, err := readTrace(path)
	if err != nil {
		return nil, err
	}
	self := selfByName(spans)
	med := func(name string) float64 { return median(self[name]) }
	for name, unit := range map[string]string{
		"fetch.entry": "ms", "fetch.subres": "ms", "html.tidy": "ms", "html.render": "ms",
		"filter.apply": "ms", "attr.apply": "ms", "attr.serialize": "ms", "css.styler": "ms",
		"layout.layout": "ms", "raster.paint": "ms", "raster.paint_serial": "ms",
		"imaging.scale": "ms", "imaging.encode": "ms",
		"proxy.entry_cold": "ms", "proxy.entry_new_session": "ms",
	} {
		layer[name+"_"+unit] = metric{med(name), unit}
	}
	for _, name := range []string{"proxy.entry_warm", "proxy.subpage", "proxy.asset_200", "proxy.asset_304"} {
		layer[name+"_us"] = metric{med(name) * 1000, "us"}
	}
	layer["proxy.entry_ttfb_ms"] = metric{median(tr.notes["proxy.entry_ttfb"]), "ms"}
	var attributed float64
	for _, name := range pipelineSpans {
		// html.tidy runs twice per build; every other span once.
		attributed += med(name) * float64(len(self[name])) / float64(o.censusViews)
	}
	layer["trace.unattributed_ms"] = metric{median(coldMs) - attributed, "ms"}
	layer["trace.cold_view_ms"] = metric{median(coldMs), "ms"}

	return &result{Correct: failed == 0, Attempted: views, Failed: failed, Metrics: layer}, nil
}
