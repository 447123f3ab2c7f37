package prefetch

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"msite/internal/admission"
	"msite/internal/fetch"
	"msite/internal/obs"
	"msite/internal/proxy"
)

// originPage is one conditional-GET-aware page of the fake origin.
type originPage struct {
	mu     sync.Mutex
	etag   string
	body   string
	gets   int // full 200 responses served
	cond   int // conditional requests seen
	got304 int
}

func (p *originPage) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if inm := r.Header.Get("If-None-Match"); inm != "" {
		p.cond++
		if inm == p.etag {
			p.got304++
			w.WriteHeader(http.StatusNotModified)
			return
		}
	}
	p.gets++
	w.Header().Set("ETag", p.etag)
	w.Header().Set("Content-Type", "text/html")
	fmt.Fprint(w, p.body)
}

func (p *originPage) set(etag, body string) {
	p.mu.Lock()
	p.etag, p.body = etag, body
	p.mu.Unlock()
}

// fakeSite implements Site against the fake origin.
type fakeSite struct {
	name   string
	origin string

	mu         sync.Mutex
	val        proxy.BundleValidator
	builds     []bool // force flag of each PrefetchBuild call
	touches    int
	buildErr   error
	ranOnBuild bool
}

func (s *fakeSite) SiteName() string { return s.name }
func (s *fakeSite) Origin() string   { return s.origin }

func (s *fakeSite) PrefetchBuild(ctx context.Context, force bool) (bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.builds = append(s.builds, force)
	if s.buildErr != nil {
		return false, s.buildErr
	}
	return s.ranOnBuild, nil
}

func (s *fakeSite) BundleValidator() proxy.BundleValidator {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.val
}

func (s *fakeSite) setValidator(v proxy.BundleValidator) {
	s.mu.Lock()
	s.val = v
	s.mu.Unlock()
}

func (s *fakeSite) TouchBundle() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.touches++
	return true
}

func (s *fakeSite) PrefetchFetcher() *fetch.Fetcher {
	return fetch.New(nil, fetch.WithTimeout(2*time.Second))
}

func (s *fakeSite) buildCalls() []bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]bool(nil), s.builds...)
}

func (s *fakeSite) touchCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.touches
}

// newOrigin serves a set of pages under one test server; pages maps
// path ("/", "/b") to its handler.
func newOrigin(t *testing.T, pages map[string]*originPage) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	for path, pg := range pages {
		mux.Handle(path, pg)
	}
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

func TestBootstrapBuildsTopNByName(t *testing.T) {
	pages := map[string]*originPage{
		"/c/": {etag: `"v1"`, body: "<html><body>c</body></html>"},
		"/a/": {etag: `"v1"`, body: "<html><body>a</body></html>"},
		"/b/": {etag: `"v1"`, body: "<html><body>b</body></html>"},
	}
	srv := newOrigin(t, pages)

	var sites []Site
	var fakes []*fakeSite
	for _, name := range []string{"c", "a", "b"} {
		f := &fakeSite{name: name, origin: srv.URL + "/" + name + "/", ranOnBuild: true}
		fakes = append(fakes, f)
		sites = append(sites, f)
	}
	c := New(Config{TopN: 2, Depth: 1})
	c.SetSites(sites)

	rep := c.RunCycle(context.Background())
	// No demand anywhere: bootstrap crawls all roots, every site scores
	// the same depth boost, name breaks ties — a and b win.
	if want := []string{"a", "b"}; strings.Join(rep.Targets, ",") != strings.Join(want, ",") {
		t.Fatalf("targets = %v, want %v", rep.Targets, want)
	}
	for _, f := range fakes {
		calls := f.buildCalls()
		switch f.name {
		case "a", "b":
			if len(calls) != 1 || calls[0] {
				t.Fatalf("site %s builds = %v, want one unforced build", f.name, calls)
			}
		default:
			if len(calls) != 0 {
				t.Fatalf("site %s built despite missing the top-N cut", f.name)
			}
		}
	}
	if len(rep.Built) != 2 {
		t.Fatalf("Built = %v, want 2 entries", rep.Built)
	}
}

func TestDemandOutranksAndDecays(t *testing.T) {
	pages := map[string]*originPage{"/": {etag: `"v1"`, body: "<html><body>home</body></html>"}}
	srv := newOrigin(t, pages)

	hot := &fakeSite{name: "zz-hot", origin: srv.URL + "/", ranOnBuild: true}
	cold := &fakeSite{name: "aa-cold", origin: srv.URL + "/", ranOnBuild: true}
	c := New(Config{TopN: 1, Depth: 1})
	c.SetSites([]Site{hot, cold})

	for i := 0; i < 10; i++ {
		c.RecordHit("zz-hot")
	}
	rep := c.RunCycle(context.Background())
	if len(rep.Targets) != 1 || rep.Targets[0] != "zz-hot" {
		t.Fatalf("targets = %v, want [zz-hot]", rep.Targets)
	}

	// Demand halves each cycle; after enough idle cycles the hot site's
	// history evaporates and the name tiebreak flips the winner.
	for i := 0; i < 12; i++ {
		rep = c.RunCycle(context.Background())
	}
	if len(rep.Targets) != 1 || rep.Targets[0] != "aa-cold" {
		t.Fatalf("after decay targets = %v, want [aa-cold]", rep.Targets)
	}
}

func TestLinkDepthBoostsLinkedSite(t *testing.T) {
	// Site A's entry links to B's; C is an island. A has demand, so the
	// crawl roots at A and finds B one hop away — B outranks C.
	pages := map[string]*originPage{
		"/b": {etag: `"b1"`, body: "<html><body>b</body></html>"},
		"/c": {etag: `"c1"`, body: "<html><body>c</body></html>"},
	}
	srv := newOrigin(t, pages)
	pages["/"] = &originPage{etag: `"a1"`,
		body: `<html><body><a href="` + srv.URL + `/b">b</a></body></html>`}
	// Re-register is not possible on the running mux; build a fresh
	// server with all three pages instead.
	srv2 := newOrigin(t, pages)

	a := &fakeSite{name: "a", origin: srv2.URL + "/", ranOnBuild: true}
	b := &fakeSite{name: "b", origin: srv2.URL + "/b", ranOnBuild: true}
	cSite := &fakeSite{name: "c", origin: srv2.URL + "/c", ranOnBuild: true}
	cr := New(Config{TopN: 2, Depth: 2})
	cr.SetSites([]Site{a, b, cSite})
	cr.RecordHit("a")

	rep := cr.RunCycle(context.Background())
	if want := "a,b"; strings.Join(rep.Targets, ",") != want {
		t.Fatalf("targets = %v, want [a b]", rep.Targets)
	}
}

func TestRevalidation304TouchesInsteadOfBuilding(t *testing.T) {
	home := &originPage{etag: `"v1"`, body: "<html><body>home</body></html>"}
	srv := newOrigin(t, map[string]*originPage{"/": home})

	site := &fakeSite{name: "a", origin: srv.URL + "/", ranOnBuild: true}
	site.setValidator(proxy.BundleValidator{ETag: `"v1"`, FetchedAt: time.Now()})
	reg := obs.NewRegistry()
	c := New(Config{TopN: 1, Depth: 1, Obs: reg})
	c.SetSites([]Site{site})

	rep := c.RunCycle(context.Background())
	if len(rep.NotModified) != 1 || rep.NotModified[0] != "a" {
		t.Fatalf("NotModified = %v, want [a]", rep.NotModified)
	}
	if got := site.buildCalls(); len(got) != 0 {
		t.Fatalf("build calls = %v, want none on 304", got)
	}
	if site.touchCount() != 1 {
		t.Fatalf("touches = %d, want 1", site.touchCount())
	}
	snap := reg.Snapshot()
	if cs, ok := snap.Counter("msite_prefetch_not_modified_total", "site", "a"); !ok || cs.Value != 1 {
		t.Fatalf("not_modified counter = %+v ok=%v, want 1", cs, ok)
	}
}

func TestOriginChangeForcesRebuild(t *testing.T) {
	home := &originPage{etag: `"v2"`, body: "<html><body>new</body></html>"}
	srv := newOrigin(t, map[string]*originPage{"/": home})

	site := &fakeSite{name: "a", origin: srv.URL + "/", ranOnBuild: true}
	site.setValidator(proxy.BundleValidator{ETag: `"v1"`, FetchedAt: time.Now()})
	reg := obs.NewRegistry()
	c := New(Config{TopN: 1, Depth: 1, Obs: reg})
	c.SetSites([]Site{site})

	rep := c.RunCycle(context.Background())
	if len(rep.Refreshed) != 1 || rep.Refreshed[0] != "a" {
		t.Fatalf("Refreshed = %v, want [a]", rep.Refreshed)
	}
	got := site.buildCalls()
	if len(got) != 1 || !got[0] {
		t.Fatalf("build calls = %v, want one forced build", got)
	}
	snap := reg.Snapshot()
	if cs, ok := snap.Counter("msite_prefetch_revalidated_total", "site", "a"); !ok || cs.Value != 1 {
		t.Fatalf("revalidated counter = %+v ok=%v, want 1", cs, ok)
	}
}

func TestBusyBuildCountsSkipped(t *testing.T) {
	home := &originPage{etag: `"v1"`, body: "<html><body>home</body></html>"}
	srv := newOrigin(t, map[string]*originPage{"/": home})

	site := &fakeSite{name: "a", origin: srv.URL + "/", buildErr: admission.ErrBackgroundBusy}
	reg := obs.NewRegistry()
	c := New(Config{TopN: 1, Depth: 1, Obs: reg})
	c.SetSites([]Site{site})

	rep := c.RunCycle(context.Background())
	if len(rep.SkippedBusy) != 1 || rep.SkippedBusy[0] != "a" {
		t.Fatalf("SkippedBusy = %v, want [a]", rep.SkippedBusy)
	}
	snap := reg.Snapshot()
	if cs, ok := snap.Counter("msite_prefetch_skipped_busy_total", "site", "a"); !ok || cs.Value != 1 {
		t.Fatalf("skipped_busy counter = %+v ok=%v, want 1", cs, ok)
	}
}

func TestCrawlRevalidatesWithConditionalGets(t *testing.T) {
	home := &originPage{etag: `"v1"`,
		body: "<html><body><a href=\"/\">self</a></body></html>"}
	srv := newOrigin(t, map[string]*originPage{"/": home})

	site := &fakeSite{name: "a", origin: srv.URL + "/", ranOnBuild: true}
	c := New(Config{TopN: 1, Depth: 1})
	c.SetSites([]Site{site})
	c.RecordHit("a")

	c.RunCycle(context.Background())
	c.RecordHit("a")
	rep := c.RunCycle(context.Background())
	home.mu.Lock()
	fullGets, got304 := home.gets, home.got304
	home.mu.Unlock()
	// First cycle paid one full GET for the link walk; the second cycle
	// revalidated and got a 304 instead of a second body.
	if fullGets != 1 {
		t.Fatalf("origin served %d full responses, want 1", fullGets)
	}
	if got304 == 0 {
		t.Fatalf("origin served no 304s; conditional crawl not exercised")
	}
	if rep.CrawlNotModified == 0 {
		t.Fatalf("report shows no crawl 304s: %+v", rep)
	}
}

func TestCloseWithoutStartAndDoubleClose(t *testing.T) {
	c := New(Config{})
	c.Close()
	c.Close()

	c2 := New(Config{Interval: time.Hour})
	c2.Start()
	done := make(chan struct{})
	go func() { c2.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Close did not stop the crawler loop")
	}
}

func TestExtractLinksFiltersAndResolves(t *testing.T) {
	body := []byte(`<html><body>
		<a href="/rel">rel</a>
		<a href="http://other.example/x">abs</a>
		<a href="#frag">frag</a>
		<a href="javascript:void(0)">js</a>
		<a href="mailto:x@example.com">mail</a>
	</body></html>`)
	links := extractLinks(body, "http://origin.example/page")
	want := []string{"http://origin.example/rel", "http://other.example/x"}
	if strings.Join(links, ",") != strings.Join(want, ",") {
		t.Fatalf("links = %v, want %v", links, want)
	}
}

// The demand ranking must survive a restart: hits recorded by one
// crawler process outrank cold sites in the next process (ROADMAP item 2
// leftover).
func TestDemandPersistsAcrossRestart(t *testing.T) {
	pg := &originPage{}
	pg.set(`"v1"`, `<html><body>origin</body></html>`)
	srv := newOrigin(t, map[string]*originPage{"/": pg})

	state := t.TempDir() + "/prefetch-demand.json"
	hot := &fakeSite{name: "zz-hot", origin: srv.URL + "/", ranOnBuild: true}
	cold := &fakeSite{name: "aa-cold", origin: srv.URL + "/", ranOnBuild: true}

	c1 := New(Config{TopN: 1, StateFile: state})
	c1.SetSites([]Site{hot, cold})
	for i := 0; i < 8; i++ {
		c1.RecordHit("zz-hot")
	}
	c1.Close() // snapshot without running a cycle

	// A fresh process: without the state file "aa-cold" would win the
	// top-1 slot on the name tiebreak; with it, the reloaded demand must
	// keep "zz-hot" ranked first.
	c2 := New(Config{TopN: 1, StateFile: state})
	c2.SetSites([]Site{hot, cold})
	rep := c2.RunCycle(context.Background())
	if len(rep.Targets) != 1 || rep.Targets[0] != "zz-hot" {
		t.Fatalf("restarted crawler targets = %v, want [zz-hot]", rep.Targets)
	}

	// The cycle's decayed scores were re-snapshotted; a third process
	// still remembers (halved) demand.
	c3 := New(Config{TopN: 1, StateFile: state})
	c3.SetSites([]Site{hot, cold})
	if rep := c3.RunCycle(context.Background()); len(rep.Targets) != 1 || rep.Targets[0] != "zz-hot" {
		t.Fatalf("third-generation targets = %v, want [zz-hot]", rep.Targets)
	}
}

// A corrupt or missing state file must cold-start, not fail.
func TestDemandStateFileCorruptIsColdStart(t *testing.T) {
	state := t.TempDir() + "/prefetch-demand.json"
	if err := os.WriteFile(state, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	c := New(Config{StateFile: state})
	c.mu.Lock()
	n := len(c.demand)
	c.mu.Unlock()
	if n != 0 {
		t.Fatalf("corrupt state loaded %d entries", n)
	}
	c.Close()
}
