package proxy

import (
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"msite/internal/html"
	"msite/internal/origin"
	"msite/internal/session"
	"msite/internal/spec"
)

// evaluationSpec turns forumSpec into the evaluation spec
// (experiments.SpecForForum, which this package cannot import): a
// searchable pre-rendered forums subpage and a thumbnailed <object>
// beside the login page that a dependency attribute hands the site's
// stylesheets and the scaled entry snapshot.
func evaluationSpec(sp *spec.Spec) {
	sp.Objects = append(sp.Objects, spec.Object{Name: "shoptour", Selector: "#shoptour object",
		Attributes: []spec.Attribute{{Type: spec.AttrThumbnail, Params: map[string]string{"scale": "0.4"}}}})
	forums := &sp.Objects[len(sp.Objects)-2]
	forums.Attributes = append(forums.Attributes,
		spec.Attribute{Type: spec.AttrSearchable, Params: map[string]string{"trigger": "msite-search"}})
}

// TestColdBuildAllocationBudget cold-builds the evaluation spec and holds
// what the build allocates to a budget. Before the renderer scaled in
// bands a build cost ~790 k allocations and ~35 MB, 600 k of them one
// boxed color.RGBA per pixel read through image.Image.At and 21 MB of it
// three desktop-size frames; band folding brought it to ~38 k and ~9 MB,
// a tenth of that a stylesheet every styler of the build used to parse
// for itself. Since renders collect their rows as palette indices rather
// than into RGBA frames (the forums pre-render's alone was 2.1 MB) it is
// ~27 k and ~6 MB. The parse of the site's 30 KB stylesheet was 10.8 k of
// those 27 k until it cut its input in place (2.2 k), and layout stopped
// allocating for the colspan a cell lacks: ~16 k and ~5.5 MB. Since each
// paint worker folds its own 16-row band, with a ring of slots rather than
// a channel a band, and fetch reads a chunked body without regrowing it,
// ~15.7 k and ~4.8 MB. Layout with styling was ~6.9 k of those until
// elements that cascade alike shared one computed style (a build styles
// ~1 000 elements into ~70 distinct styles) and a layout cut its boxes
// from a slab, walked table rows in place and kept one word buffer:
// ~10.8 k and ~4.3 MB. Since a band is painted as fills resolved into
// spans of one colour and folded a span at a time, no paint worker holds
// a band of pixels: ~4.2 MB. Since an exact pre-render deflates its rows
// as they are painted, the forums pre-render keeps no 0.53 MB palette
// frame, and its palette is no longer boxed a colour at a time: ~10.7 k
// and ~3.7 MB. Since the parsed DOM (nodes and attribute lists), each
// parsed stylesheet (selectors, selector lists, class lists and
// declarations) and a layout's text runs are cut from slabs (dom.Slab),
// a chunk at a time, ~5.5 k and ~3.5 MB. Since each box's children are a
// window of one slab, collected on a stack while the box is laid out
// rather than appended to it one at a time, and the search index's
// deltas are one string that every word's entry slices, ~4.6 k. Those
// figures counted the in-process origin's page generation too (~1.2 k of
// them), since each build had a cold origin of its own; the origin is
// warmed by the first build now, so the figure is the proxy's own:
// ~3.4 k and ~3.2 MB. Since origin-relative links of the common shape
// are written after the origin by hand rather than through net/url
// (~5 objects a link), search words are lowered into one string, a
// cascade reuses its declaration lists and a successful origin request
// is recorded without an allocation, ~2.8 k and ~3.1 MB. Each of those
// builds ran on a proxy of its own, and ~150 of its objects were the
// first use of the proxy's metric series, which a long-lived proxy makes
// once; the build measured now is a second one on the same proxy, a
// ?refresh=1 once the shared snapshot has gone: ~2.58 k and ~3.1 MB. The
// budget sits below any of those coming back, and 18% above what a build
// costs now; under the race detector a build makes ~2.64 k.
//
// Each of a build's three renders allocates about 70 KB per paint worker
// (its recorder of the band's fills, its filter's sums per destination
// column and a slot of output rows), so the test runs on two CPUs, the
// figures above, whatever the machine has: on sixteen a build would
// allocate ~3 MB more.
func TestColdBuildAllocationBudget(t *testing.T) {
	const maxMallocs, maxBytes = 3_050, 4 << 20
	prev := runtime.GOMAXPROCS(2)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	originSrv := httptest.NewServer(origin.NewForum(origin.DefaultForumConfig()).Handler())
	t.Cleanup(originSrv.Close)
	rig := newRigAt(t, originSrv, evaluationSpec)
	// build runs one more build and render of the page on rig's proxy, as a
	// device's ?refresh=1 does once the shared snapshot has expired.
	build := func() (mallocs, bytes uint64) {
		rig.p.cfg.Cache.Delete(rig.p.snapKey)
		st0 := rig.p.Stats()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rig.get(t, "/?refresh=1")
		runtime.ReadMemStats(&after)
		if st := rig.p.Stats(); st.Adaptations-st0.Adaptations != 1 || st.SnapshotRenders-st0.SnapshotRenders != 1 {
			t.Fatalf("a refresh ran %d adaptations and %d snapshot renders, want 1 and 1",
				st.Adaptations-st0.Adaptations, st.SnapshotRenders-st0.SnapshotRenders)
		}
		return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
	}
	// The first build also pays for lazily built tables, the origin's pages
	// and the proxy's metric series, which a long-lived proxy pays once.
	build()
	mallocs, bytes := build()
	t.Logf("| cold build | measured | budget |")
	t.Logf("|---|---|---|")
	t.Logf("| allocations | %d | %d |", mallocs, maxMallocs)
	t.Logf("| MB | %.1f | %d |", float64(bytes)/(1<<20), maxBytes>>20)
	if mallocs > maxMallocs || bytes > maxBytes {
		t.Fatalf("cold build allocated %d objects, %.1f MB; budget %d, %d MB",
			mallocs, float64(bytes)/(1<<20), maxMallocs, maxBytes>>20)
	}
}

// waveGate holds an origin's subresource requests — every one but the
// entry — until all those a build will make have arrived, or until 5 s
// after the first of them: each release ends one wave of requests the
// build waited through. It counts; nothing depends on how long a request
// took.
type waveGate struct {
	mu      sync.Mutex
	want    int // the build's subresource requests not yet released
	held    int
	waves   int
	release chan struct{}
	timer   *time.Timer
}

// expect starts a build that will make want subresource requests.
func (g *waveGate) expect(want int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.want, g.held, g.waves = want, 0, 0
}

// hold blocks one subresource request until its wave is released.
func (g *waveGate) hold() {
	g.mu.Lock()
	if g.release == nil {
		g.waves++
		g.release = make(chan struct{})
		g.timer = time.AfterFunc(5*time.Second, g.open)
	}
	release := g.release
	if g.held++; g.held >= g.want {
		g.openLocked()
	}
	g.mu.Unlock()
	<-release
}

func (g *waveGate) open() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.openLocked()
}

func (g *waveGate) openLocked() {
	if g.release == nil {
		return
	}
	g.timer.Stop()
	close(g.release)
	g.want, g.held, g.release = g.want-g.held, 0, nil
}

// subresourceCount counts the requests a cold build of the forum makes
// besides its entry: each distinct linked stylesheet and each distinct
// <img> src, up to maxRenderImages.
func subresourceCount(t *testing.T, forum http.Handler) int {
	t.Helper()
	rec := httptest.NewRecorder()
	forum.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/", nil))
	doc := html.Tidy(rec.Body.String())
	sheets, images := make(map[string]bool), make(map[string]bool)
	for _, link := range doc.Elements("link") {
		if strings.Contains(strings.ToLower(link.AttrOr("rel", "")), "stylesheet") {
			sheets[link.AttrOr("href", "")] = true
		}
	}
	for _, img := range doc.Elements("img") {
		if len(images) < maxRenderImages {
			images[img.AttrOr("src", "")] = true
		}
	}
	return len(sheets) + len(images)
}

// TestColdBuildOriginWaveBudget holds a cold build to two waits on the
// origin — the entry, then one batch of every stylesheet and image — and
// a second cold build against the same origin to the connections the
// first left idle. The origin holds each stylesheet and image request
// until all of the build's have arrived, so a build that asked for the
// images only after its stylesheets had come back would wait the gate's
// 5 s out and count a third wave. Both budgets are counts, not times.
func TestColdBuildOriginWaveBudget(t *testing.T) {
	const maxWaves, maxNewConns = 2, 0
	forum := origin.NewForum(origin.DefaultForumConfig()).Handler()
	want := subresourceCount(t, forum)
	gate := &waveGate{}
	var requests, newConns atomic.Int32
	originSrv := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			requests.Add(1)
			gate.hold()
		}
		forum.ServeHTTP(w, r)
	}))
	originSrv.Config.ConnState = func(_ net.Conn, state http.ConnState) {
		if state == http.StateNew {
			newConns.Add(1)
		}
	}
	originSrv.Start()
	t.Cleanup(originSrv.Close)

	coldBuild := func() (waves int) {
		t.Helper()
		gate.expect(want)
		requests.Store(0)
		rig := newRigAt(t, originSrv, evaluationSpec)
		if _, resp := rig.get(t, "/"); resp.StatusCode != http.StatusOK {
			t.Fatalf("cold entry = %d", resp.StatusCode)
		}
		if st := rig.p.Stats(); st.Adaptations != 1 {
			t.Fatalf("a cold entry ran %d adaptations, want 1", st.Adaptations)
		}
		if got := int(requests.Load()); got != want {
			t.Fatalf("the build made %d subresource requests, want %d", got, want)
		}
		gate.mu.Lock()
		defer gate.mu.Unlock()
		return 1 + gate.waves
	}
	waves := coldBuild()
	newConns.Store(0)
	secondWaves := coldBuild()
	dialed := int(newConns.Load())

	t.Logf("| cold build against the origin | measured | budget |")
	t.Logf("|---|---|---|")
	t.Logf("| origin waves (entry + %d subresources) | %d | %d |", want, waves, maxWaves)
	t.Logf("| new origin connections, second cold build | %d | %d |", dialed, maxNewConns)
	if waves > maxWaves || secondWaves > maxWaves {
		t.Errorf("cold builds waited through %d and %d origin waves; budget %d", waves, secondWaves, maxWaves)
	}
	if dialed > maxNewConns {
		t.Errorf("a second cold build opened %d new origin connections; budget %d", dialed, maxNewConns)
	}
}

// assetRef finds the proxy assets a page references: an <img src> or a
// partial-CSS background's url().
var assetRef = regexp.MustCompile(`(?:src="|url\()(/asset/[^")]+)`)

// TestFirstViewWireBudget holds what a phone downloads to see the
// evaluation spec's site for the first time — the entry overlay, its
// snapshot, the three subpages and the images they reference — to a
// budget, artifact by artifact: a first view is Table 1's unit, and on a
// 300 kbps link every kilobyte is 27 ms. The login page was 31 KB while a
// dependency attribute shipped it the whole stylesheet to use one rule,
// the forums page 14.6 KB while its index spelled a word once per
// occurrence, 10.8 KB while it wrote every coordinate of a hit in
// decimal and 6.9 KB while every hit spelled out its row, and the forums
// image a 62.7 KB q40 JPEG before a flat
// pre-render shipped as an exact palette PNG.
func TestFirstViewWireBudget(t *testing.T) {
	const maxView = 53 << 10
	budget := map[string]int{"/subpage/login": 2 << 10, "/subpage/forums": 6 << 10}
	// imageBudget holds, by subpage, the budget of each image it references.
	imageBudget := map[string]int{"/subpage/forums": 36 << 10}
	rig := newRig(t, evaluationSpec)
	var paths []string
	var sizes []int
	total := 0
	fetch := func(path string) string {
		body, resp := rig.get(t, path)
		if resp.StatusCode != 200 {
			t.Fatalf("GET %s = %d", path, resp.StatusCode)
		}
		paths, sizes, total = append(paths, path), append(sizes, len(body)), total+len(body)
		return body
	}
	for _, path := range []string{"/", "/asset/snapshot.jpg", "/subpage/login", "/subpage/nav", "/subpage/forums"} {
		body := fetch(path)
		if !strings.HasPrefix(path, "/subpage/") {
			continue
		}
		refs := assetRef.FindAllStringSubmatch(body, -1)
		if max, ok := imageBudget[path]; ok {
			if len(refs) == 0 {
				t.Fatalf("%s references no image", path)
			}
			for _, ref := range refs {
				budget[ref[1]] = max
			}
		}
		for _, ref := range refs {
			fetch(ref[1])
		}
	}
	t.Logf("| artifact | bytes | share of a first view | budget |")
	t.Logf("|---|---|---|---|")
	for i, path := range paths {
		limit := "-"
		if max, ok := budget[path]; ok {
			limit = strconv.Itoa(max)
			if sizes[i] > max {
				t.Errorf("%s is %d B, budget %d", path, sizes[i], max)
			}
		}
		t.Logf("| %s | %d | %.1f%% | %s |", path, sizes[i], 100*float64(sizes[i])/float64(total), limit)
	}
	t.Logf("| first view | %d | 100%% | %d |", total, maxView)
	if total > maxView {
		t.Errorf("a first view is %d B, budget %d", total, maxView)
	}
}

// discardWriter is a ResponseWriter that keeps a response's status and
// length and drops its body, so what a handler allocates is all that is
// measured.
type discardWriter struct {
	header http.Header
	status int
	n      int
}

func (d *discardWriter) Header() http.Header { return d.header }

func (d *discardWriter) WriteHeader(code int) {
	if d.status == 0 {
		d.status = code
	}
}

func (d *discardWriter) Write(b []byte) (int, error) {
	d.WriteHeader(http.StatusOK)
	d.n += len(b)
	return len(b), nil
}

// warmStep is one request of a warm view and the status it must get.
type warmStep struct {
	path   string
	status int
}

// warmView runs a device's first view of rig's site — entry, snapshot,
// forums and login subpages, the forums image — and returns the steps of
// that device's next view, with a function that makes their requests:
// each carries the session cookie, and each asset the validator, the
// first view was given. The entry is a 200, the snapshot a 304, the
// subpages 200s and the forums image a 304.
func warmView(t *testing.T, rig *testRig) ([]warmStep, func() []*http.Request) {
	t.Helper()
	snapshot := "/asset/" + rig.p.snapName
	etags := make(map[string]string)
	for _, path := range []string{"/", snapshot, "/subpage/forums", "/subpage/login", "/asset/forums.png"} {
		if _, resp := rig.get(t, path); resp.StatusCode != http.StatusOK {
			t.Fatalf("cold GET %s = %d", path, resp.StatusCode)
		} else if etag := resp.Header.Get("ETag"); etag != "" {
			etags[path] = etag
		}
	}
	u, _ := url.Parse(rig.proxy.URL)
	var cookie *http.Cookie
	for _, c := range rig.client.Jar.Cookies(u) {
		if c.Name == session.CookieName {
			cookie = c
		}
	}
	if cookie == nil || etags[snapshot] == "" || etags["/asset/forums.png"] == "" {
		t.Fatalf("cold view left no session cookie or no asset validators (%v)", etags)
	}
	view := []warmStep{
		{"/", http.StatusOK},
		{snapshot, http.StatusNotModified},
		{"/subpage/forums", http.StatusOK},
		{"/subpage/login", http.StatusOK},
		{"/asset/forums.png", http.StatusNotModified},
	}
	return view, func() []*http.Request {
		reqs := make([]*http.Request, len(view))
		for i, step := range view {
			reqs[i] = httptest.NewRequest(http.MethodGet, step.path, nil)
			reqs[i].AddCookie(cookie)
			if step.status == http.StatusNotModified {
				reqs[i].Header.Set("If-None-Match", etags[step.path])
			}
		}
		return reqs
	}
}

// TestWarmViewAllocationBudget holds what the handler allocates to serve
// one warm view of the evaluation spec — a session that has seen the site
// coming back with the validators it was given: entry 200, snapshot 304,
// forums and login subpages 200, the forums image 304 — to a budget, and
// each request of it to a ceiling. While every request looked its metric
// series up by name, derived a rate-limit key with no rate limiter and
// traced through fmt, and every entry rebuilt its overlay, a view cost 320
// allocations here (the entry 116, each other request ~51); with the
// handles resolved when the proxy is built and the overlay built once per
// Bundle and snapshot geometry it cost ~60, 12 a request: the trace, its
// ID, its context, its annotation map and the request copy carrying it,
// the recorder, the session cookie's parse and each header set. Since the
// trace is its own context and holds its ID and its first annotations,
// the recorder and the trace are one value, the session cookie is found
// without net/http's parse, the headers are set from values made with
// each artifact and a hit on the shared snapshot makes no fill closure,
// a request costs that one value: 5 a view. The budget is a fifth more.
// What net/http allocates around a handler is not counted here.
func TestWarmViewAllocationBudget(t *testing.T) {
	const maxAllocs, maxRequestAllocs = 6, 3
	rig := newRig(t, evaluationSpec)
	view, requests := warmView(t, rig)
	reqs := requests()
	w := &discardWriter{header: make(http.Header)}
	serve := func(i int) {
		clear(w.header)
		w.status, w.n = 0, 0
		rig.p.ServeHTTP(w, reqs[i])
		if w.status != view[i].status {
			t.Fatalf("warm GET %s = %d, want %d", view[i].path, w.status, view[i].status)
		}
	}
	for i := range view {
		serve(i) // the first warm request of each kind pays for lazily built state
	}
	before := rig.p.Stats()

	t.Logf("| warm view | allocations | budget |")
	t.Logf("|---|---|---|")
	total := 0.0
	for i, step := range view {
		allocs := testing.AllocsPerRun(200, func() { serve(i) })
		total += allocs
		t.Logf("| %s %d | %.0f | %d |", step.path, step.status, allocs, maxRequestAllocs)
		if allocs > maxRequestAllocs {
			t.Errorf("warm GET %s allocated %.0f objects; ceiling %d", step.path, allocs, maxRequestAllocs)
		}
	}
	t.Logf("| view | %.0f | %d |", total, maxAllocs)
	if st := rig.p.Stats(); st.Adaptations != before.Adaptations || st.SnapshotRenders != before.SnapshotRenders {
		t.Fatalf("warm views ran %d adaptations and %d snapshot renders",
			st.Adaptations-before.Adaptations, st.SnapshotRenders-before.SnapshotRenders)
	}
	if total > maxAllocs {
		t.Fatalf("a warm view allocated %.0f objects; budget %d", total, maxAllocs)
	}
}

// TestRequestBookkeepingAllocations holds the floor under every request —
// counting, tracing and recording it, finding its session — to a ceiling,
// on two requests that do nothing else: a path the proxy does not serve,
// and a subpage the session's Bundle does not have. They cost 8 and 13
// while the trace, its ID, context and annotations, the session cookie's
// parse, the subpage's file name and http.NotFound's headers and body
// were objects of their own; each costs 1 now. The last row is a warm
// entry with a request logger, as msite-proxy runs by default: while the
// log line copied the trace's annotations into a map, sorted a key slice
// and grew an attribute slice, it cost 6; it costs 2 now, the second
// being the log record's room for attributes past its first five (3
// under the race detector).
func TestRequestBookkeepingAllocations(t *testing.T) {
	const maxAllocs, maxLoggedAllocs = 3, 3
	rig := newRig(t, evaluationSpec)
	_, requests := warmView(t, rig)
	cookie := requests()[0].Header.Get("Cookie")
	// The same site with a request logger, over the same sessions and
	// cache; its first request builds the session's view.
	cfg := rig.p.cfg
	cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	logged, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w := &discardWriter{header: make(http.Header)}
	t.Logf("| request bookkeeping | allocations | ceiling |")
	t.Logf("|---|---|---|")
	for _, row := range []struct {
		p       *Proxy
		path    string
		status  int
		ceiling int
	}{
		{rig.p, "/no/such/path", http.StatusNotFound, maxAllocs},
		{rig.p, "/subpage/x", http.StatusNotFound, maxAllocs},
		{logged, "/", http.StatusOK, maxLoggedAllocs},
	} {
		r := httptest.NewRequest(http.MethodGet, row.path, nil)
		r.Header.Set("Cookie", cookie)
		serve := func() {
			clear(w.header)
			w.status, w.n = 0, 0
			row.p.ServeHTTP(w, r)
			if w.status != row.status {
				t.Fatalf("GET %s = %d, want %d", row.path, w.status, row.status)
			}
		}
		serve()
		allocs := testing.AllocsPerRun(200, serve)
		name := fmt.Sprintf("%s %d", row.path, row.status)
		if row.p == logged {
			name += ", logged"
			// The handler takes its buffers from a sync.Pool, which drops
			// a quarter of what it is given under the race detector; the
			// least of single requests is what a request makes when the
			// pool has them.
			for range 20 {
				allocs = min(allocs, testing.AllocsPerRun(1, serve))
			}
		}
		t.Logf("| %s | %.0f | %d |", name, allocs, row.ceiling)
		if allocs > float64(row.ceiling) {
			t.Errorf("GET %s allocated %.0f objects; ceiling %d", name, allocs, row.ceiling)
		}
	}
}

// TestSharedHeaderValues: the header values a response shares with every
// other response of its artifact are never written through. A handler
// wrapped around the proxy Adds to every header the proxy set once the
// proxy has answered; the next view's headers are still the first view's,
// sequentially and with 8 views at once (which -race checks too).
func TestSharedHeaderValues(t *testing.T) {
	rig := newRig(t, evaluationSpec)
	view, requests := warmView(t, rig)
	wrapped := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rig.p.ServeHTTP(w, r)
		for key := range w.Header() {
			w.Header().Add(key, "added")
		}
		w.Header().Add("Cache-Control", "no-store")
		w.Header().Add("ETag", `"added"`)
	})
	// serveView serves one view through wrapped and returns each
	// response's headers as they were written, the trace ID left out.
	serveView := func() ([]http.Header, error) {
		var out []http.Header
		for i, r := range requests() {
			rec := httptest.NewRecorder()
			wrapped.ServeHTTP(rec, r)
			resp := rec.Result()
			if resp.StatusCode != view[i].status {
				return nil, fmt.Errorf("GET %s = %d, want %d", view[i].path, resp.StatusCode, view[i].status)
			}
			if ids := resp.Header.Values(TraceHeader); len(ids) != 1 || len(ids[0]) != 16 {
				return nil, fmt.Errorf("GET %s trace header %q", view[i].path, ids)
			}
			resp.Header.Del(TraceHeader)
			out = append(out, resp.Header)
		}
		return out, nil
	}
	first, err := serveView()
	if err != nil {
		t.Fatal(err)
	}
	for i, h := range first {
		for key, vals := range h {
			if len(vals) != 1 || vals[0] == "added" {
				t.Fatalf("GET %s %s = %q", view[i].path, key, vals)
			}
		}
	}
	if h := first[1]; h.Get("Etag") == "" || h.Get("Cache-Control") == "" || h.Get("Content-Type") == "" {
		t.Fatalf("snapshot 304 headers %v", h)
	}
	if h := first[2]; h.Get("Content-Length") == "" || h.Get("Content-Type") == "" {
		t.Fatalf("subpage headers %v", h)
	}
	check := func(got []http.Header) error {
		for i := range got {
			if !reflect.DeepEqual(got[i], first[i]) {
				return fmt.Errorf("GET %s headers %v, the first view's %v", view[i].path, got[i], first[i])
			}
		}
		return nil
	}
	again, err := serveView()
	if err == nil {
		err = check(again)
	}
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := serveView()
			if err == nil {
				err = check(got)
			}
			errs <- err
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
}

// TestBundleRecordBudget holds the evaluation build's Bundle record, and
// what encoding and decoding it allocate, to a budget. As a gob record it
// was 120 564 B, 38 940 B of them second copies of the forums pre-render
// and of the search script inside the forums page; encoding it allocated
// ~527 KB, as gob regrew one message buffer, and decoding ~260 KB. Its
// pages and assets are 80 640 B, each now stored once: the record is
// those, their names and a few hundred bytes of notes and areas, encoding
// allocates the record once, and decoding lets pages and assets alias it:
// 80 917 B, ~82 KB and ~2 KB; 79 690 B once the search index named each
// row of text once.
func TestBundleRecordBudget(t *testing.T) {
	const maxRecord, maxDecode = 83_000, 16 << 10
	b := coldForumBundle(t)
	record, err := encodeBundle(b)
	if err != nil {
		t.Fatal(err)
	}
	maxEncode := len(record) * 11 / 10
	// allocated is what one call of f allocates, averaged over a few.
	allocated := func(f func() error) int {
		const n = 20
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < n; i++ {
			if err := f(); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		return int(after.TotalAlloc-before.TotalAlloc) / n
	}
	encode := allocated(func() error { _, err := encodeBundle(b); return err })
	decode := allocated(func() error { _, err := decodeBundle(record); return err })
	t.Logf("| bundle record | measured | budget |")
	t.Logf("|---|---|---|")
	t.Logf("| record B | %d | %d |", len(record), maxRecord)
	t.Logf("| encode allocated B | %d | %d |", encode, maxEncode)
	t.Logf("| decode allocated B | %d | %d |", decode, maxDecode)
	if len(record) > maxRecord || encode > maxEncode || decode > maxDecode {
		t.Fatalf("record %d B, encode %d B, decode %d B allocated; budget %d, %d, %d",
			len(record), encode, decode, maxRecord, maxEncode, maxDecode)
	}
}
