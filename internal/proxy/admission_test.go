package proxy

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/cookiejar"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"msite/internal/cache"
	"msite/internal/obs"
	"msite/internal/origin"
	"msite/internal/session"
	"msite/internal/spec"
)

// gatedRig is a proxy over a forum origin whose page requests can be
// held open: requests to "/" block until the gate is released, so a test
// can pile up concurrent cold adaptations deterministically.
type gatedRig struct {
	proxy    *httptest.Server
	p        *Proxy
	rootHits atomic.Int64
	release  chan struct{}
	once     sync.Once
}

func newGatedRig(t *testing.T) *gatedRig {
	t.Helper()
	g := &gatedRig{release: make(chan struct{})}
	forum := origin.NewForum(origin.DefaultForumConfig()).Handler()
	originSrv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/" {
			g.rootHits.Add(1)
			select {
			case <-g.release:
			case <-r.Context().Done():
				return
			}
		}
		forum.ServeHTTP(w, r)
	}))
	t.Cleanup(originSrv.Close)

	sessions, err := session.NewManager(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(Config{
		Spec:     forumSpec(originSrv.URL),
		Sessions: sessions,
		Cache:    cache.New(),
	})
	if err != nil {
		t.Fatal(err)
	}
	g.p = p
	g.proxy = httptest.NewServer(p)
	t.Cleanup(g.proxy.Close)
	return g
}

// open releases the origin gate (idempotent).
func (g *gatedRig) open() { g.once.Do(func() { close(g.release) }) }

// TestColdCrowdCoalescesToOneBuild is the flash-crowd invariant: N
// concurrent cold sessions of the same page run the adaptation pipeline
// exactly once. Run under -race this also stresses the shared-build
// bookkeeping.
func TestColdCrowdCoalescesToOneBuild(t *testing.T) {
	g := newGatedRig(t)
	const crowd = 8

	var wg sync.WaitGroup
	errs := make(chan error, crowd)
	for i := 0; i < crowd; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Get(g.proxy.URL + "/")
			if err != nil {
				errs <- fmt.Errorf("client %d: %w", i, err)
				return
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("client %d: status %d: %.80s", i, resp.StatusCode, body)
			}
		}(i)
	}

	// Every client has either started the build or joined it once the
	// waiter count reaches the crowd size; only then let the origin
	// answer. No sleeps, no timing assumptions.
	key := "adapt:" + g.p.cfg.Spec.Name
	deadline := time.Now().Add(10 * time.Second)
	for g.p.coalesce.waiters(key) < crowd {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d clients joined the build", g.p.coalesce.waiters(key), crowd)
		}
		time.Sleep(time.Millisecond)
	}
	g.open()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	if got := g.p.Stats().Adaptations; got != 1 {
		t.Errorf("pipeline executions = %d, want exactly 1", got)
	}
	if got := g.rootHits.Load(); got != 1 {
		t.Errorf("origin page fetches = %d, want exactly 1", got)
	}
	snap := g.p.Obs().Snapshot()
	if got := metricSum(snap, "msite_admission_coalesced_total"); got != crowd-1 {
		t.Errorf("msite_admission_coalesced_total = %v, want %d", got, crowd-1)
	}
}

// TestClientDisconnectCancelsOriginFetch is the acceptance test for
// context threading: when the last client interested in an adaptation
// disconnects, the in-flight origin request observes its context done
// instead of running to completion.
func TestClientDisconnectCancelsOriginFetch(t *testing.T) {
	var once sync.Once
	arrived := make(chan struct{})
	aborted := make(chan struct{})
	forum := origin.NewForum(origin.DefaultForumConfig()).Handler()
	originSrv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/" {
			once.Do(func() { close(arrived) })
			<-r.Context().Done()
			close(aborted)
			return
		}
		forum.ServeHTTP(w, r)
	}))
	t.Cleanup(originSrv.Close)

	sessions, err := session.NewManager(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(Config{Spec: forumSpec(originSrv.URL), Sessions: sessions, Cache: cache.New()})
	if err != nil {
		t.Fatal(err)
	}
	proxySrv := httptest.NewServer(p)
	t.Cleanup(proxySrv.Close)

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, proxySrv.URL+"/", nil)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
	}()

	<-arrived // the origin fetch is in flight
	cancel()  // the client walks away

	select {
	case <-aborted:
		// The origin saw the fetch's context end: a disconnected client
		// costs the origin nothing.
	case <-time.After(10 * time.Second):
		t.Fatal("origin fetch still running 10s after the client disconnected")
	}
	<-done
}

// TestPersonalizedSessionsBypassCoalescing: a session carrying stored
// credentials must never share another session's build (its origin view
// may differ), even when the requests are concurrent.
func TestPersonalizedSessionsBypassCoalescing(t *testing.T) {
	g := newGatedRig(t)

	// Client A stores HTTP credentials, marking its session personalized.
	jar, err := cookiejar.New(nil)
	if err != nil {
		t.Fatal(err)
	}
	authed := &http.Client{Jar: jar, Timeout: 30 * time.Second}
	resp, err := authed.PostForm(g.proxy.URL+"/auth?back=/stats", map[string][]string{
		"username": {"u"}, "password": {"p"},
	})
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	var wg sync.WaitGroup
	for _, client := range []*http.Client{authed, {Timeout: 30 * time.Second}} {
		wg.Add(1)
		go func(c *http.Client) {
			defer wg.Done()
			resp, err := c.Get(g.proxy.URL + "/")
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}(client)
	}

	// Two separate origin page fetches in flight at once proves the
	// personalized session ran its own build.
	deadline := time.Now().Add(10 * time.Second)
	for g.rootHits.Load() < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("origin page fetches = %d, want 2 concurrent builds", g.rootHits.Load())
		}
		time.Sleep(time.Millisecond)
	}
	g.open()
	wg.Wait()

	if got := g.p.Stats().Adaptations; got != 2 {
		t.Errorf("pipeline executions = %d, want 2 (no sharing with personalized)", got)
	}
}

// holdBuildSlots takes every build slot of the process, so that no build
// gets past its origin fetches until release is called; cleanup calls it
// too.
func holdBuildSlots(t *testing.T) (release func()) {
	t.Helper()
	for range cap(buildSlots) {
		buildSlots <- struct{}{}
	}
	var once sync.Once
	release = func() {
		once.Do(func() {
			for range cap(buildSlots) {
				<-buildSlots
			}
		})
	}
	t.Cleanup(release)
	return release
}

// TestCrowdRow is the count-based row of the build slots: a crowd of new
// devices arrives at a MultiProxy of two sites, 8 anonymous devices a
// site and 8 logged-in devices, 4 a site, all at once while the test
// holds every slot. Nothing finishes until the test lets it, so every
// figure is a count: the anonymous devices of a site share one build, a
// logged-in device builds alone, every build fetches its origin and then
// waits, and once the slots are free every device gets its page; no
// device is refused. In a second row a logged-in device disconnects while
// its build waits for a slot: it costs no adaptation and leaves every
// slot free. The rows go to the CI summary.
func TestCrowdRow(t *testing.T) {
	const anonymous, loggedIn = 8, 4 // a site
	var entryHits atomic.Int64
	forum := origin.NewForum(origin.DefaultForumConfig()).Handler()
	originSrv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/" {
			entryHits.Add(1)
		}
		forum.ServeHTTP(w, r)
	}))
	t.Cleanup(originSrv.Close)
	var specs []*spec.Spec
	for _, name := range []string{"forum-a", "forum-b"} {
		sp := forumSpec(originSrv.URL)
		sp.Name = name
		specs = append(specs, sp)
	}
	sessions, err := session.NewManager(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	m, err := NewMulti(specs, Config{Sessions: sessions, Cache: cache.New(), Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(m)
	t.Cleanup(srv.Close)
	sites := make([]*Proxy, len(specs))
	for i, sp := range specs {
		sites[i], _ = m.Site(sp.Name)
	}
	adaptations := func() (n uint64) {
		for _, p := range sites {
			n += p.Stats().Adaptations
		}
		return n
	}
	// A build's subres span ends just before it asks for a slot.
	atSlot := reg.Histogram(obs.StageHistogram, "stage", "subres")
	entries := sites[0].metrics.kinds[kindEntry].latency // every site's finished entries
	waitFor := func(what string, done func() bool) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for !done() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
			time.Sleep(time.Millisecond)
		}
	}
	// logIn gives a new device a session with stored origin credentials,
	// which makes every build of it private.
	logIn := func(site string) *http.Client {
		jar, err := cookiejar.New(nil)
		if err != nil {
			t.Fatal(err)
		}
		c := &http.Client{Jar: jar, Timeout: 30 * time.Second}
		resp, err := c.PostForm(srv.URL+"/p/"+site+"/auth?back=/p/"+site+"/stats", url.Values{
			"username": {"u"}, "password": {"p"},
		})
		if err != nil {
			t.Fatal(err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		_ = resp.Body.Close()
		return c
	}

	t.Logf("| row | devices | builds | coalesced | 200s | 503s | slots free after |")
	t.Logf("|---|---|---|---|---|---|---|")

	type device struct {
		client *http.Client
		site   string
	}
	var crowd []device
	for _, sp := range specs {
		for range anonymous {
			crowd = append(crowd, device{&http.Client{Timeout: 30 * time.Second}, sp.Name})
		}
		for range loggedIn {
			crowd = append(crowd, device{logIn(sp.Name), sp.Name})
		}
	}
	builds := len(specs) * (1 + loggedIn)
	release := holdBuildSlots(t)
	statuses := make([]int, len(crowd))
	var wg sync.WaitGroup
	for i, d := range crowd {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := d.client.Get(srv.URL + "/p/" + d.site + "/")
			if err != nil {
				t.Errorf("device %d: %v", i, err)
				return
			}
			_, _ = io.Copy(io.Discard, resp.Body)
			_ = resp.Body.Close()
			statuses[i] = resp.StatusCode
		}()
	}
	waitFor("every build to reach the slots", func() bool { return atSlot.Count() == uint64(builds) })
	if got := entryHits.Load(); got != int64(builds) {
		t.Errorf("before release: the origin served %d entry fetches, want %d", got, builds)
	}
	for _, p := range sites {
		key := "adapt:" + p.SiteName()
		waitFor(key+" to gather its crowd", func() bool { return p.coalesce.waiters(key) == anonymous })
	}
	if got := adaptations(); got != 0 {
		t.Errorf("before release: %d adaptations with every slot held, want 0", got)
	}
	release()
	wg.Wait()
	// A device has its page before its handler has recorded the request.
	waitFor("every crowd request to finish", func() bool { return entries.Count() == uint64(len(crowd)) })
	ok, busy := 0, 0
	for _, code := range statuses {
		switch code {
		case http.StatusOK:
			ok++
		case http.StatusServiceUnavailable:
			busy++
		}
	}
	coalesced := metricSum(reg.Snapshot(), "msite_admission_coalesced_total")
	t.Logf("| %d sites × (%d anonymous + %d logged-in), slots held | %d | %d | %.0f | %d | %d | %d of %d |",
		len(specs), anonymous, loggedIn, len(crowd), adaptations(), coalesced, ok, busy,
		cap(buildSlots)-len(buildSlots), cap(buildSlots))
	if got := adaptations(); got != uint64(builds) {
		t.Errorf("builds = %d, want %d: one a site and one a logged-in device", got, builds)
	}
	if want := float64(len(specs) * (anonymous - 1)); coalesced != want {
		t.Errorf("coalesced requests = %.0f, want %.0f", coalesced, want)
	}
	if ok != len(crowd) || busy != 0 {
		t.Errorf("%d of %d devices got 200 and %d got 503, want all 200", ok, len(crowd), busy)
	}
	waited := 0
	for _, tr := range reg.RecentTraces() {
		for _, sp := range tr.Spans {
			if sp.Name == "build_wait" {
				waited++
			}
		}
	}
	if waited != builds {
		t.Errorf("%d traces show a build_wait span, want one a build (%d)", waited, builds)
	}

	// A logged-in device that gives up while its build waits for a slot.
	gone := logIn(specs[0].Name)
	release = holdBuildSlots(t)
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL+"/p/"+specs[0].Name+"/", nil)
	if err != nil {
		t.Fatal(err)
	}
	answered := make(chan error, 1)
	go func() {
		resp, err := gone.Do(req)
		if err == nil {
			_ = resp.Body.Close()
		}
		answered <- err
	}()
	waitFor("the build to reach the slots", func() bool { return atSlot.Count() == uint64(builds+1) })
	cancel()
	if err := <-answered; err == nil {
		t.Error("a device that disconnected got an answer")
	}
	waitFor("the proxy to finish the request", func() bool { return entries.Count() == uint64(len(crowd))+1 })
	release()
	free := cap(buildSlots) - len(buildSlots)
	t.Logf("| 1 logged-in, gone while waiting | 1 | %d | 0 | 0 | 0 | %d of %d |",
		adaptations()-uint64(builds), free, cap(buildSlots))
	if got := adaptations(); got != uint64(builds) {
		t.Errorf("a disconnected device cost %d adaptations, want 0", got-uint64(builds))
	}
	if free != cap(buildSlots) {
		t.Errorf("%d of %d slots free once the test let go of them, want all", free, cap(buildSlots))
	}
}

// TestErrorBodiesAreGeneric: origin failure detail belongs in the log
// and trace, never in the response body.
func TestErrorBodiesAreGeneric(t *testing.T) {
	forum := origin.NewForum(origin.DefaultForumConfig())
	originSrv := httptest.NewServer(forum.Handler())
	sessions, err := session.NewManager(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(Config{Spec: forumSpec(originSrv.URL), Sessions: sessions, Cache: cache.New()})
	if err != nil {
		t.Fatal(err)
	}
	proxySrv := httptest.NewServer(p)
	t.Cleanup(proxySrv.Close)

	originSrv.Close() // every fetch now fails with a dial error

	resp, err := http.Get(proxySrv.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("status = %d, want 502", resp.StatusCode)
	}
	got := strings.TrimSpace(string(body))
	if got != "origin unavailable" {
		t.Errorf("502 body = %q, want the generic %q", got, "origin unavailable")
	}
	for _, leak := range []string{"connection refused", "dial tcp", "127.0.0.1"} {
		if strings.Contains(string(body), leak) {
			t.Errorf("502 body leaks %q: %q", leak, body)
		}
	}
}

// bareWriter hides the optional interfaces of its embedded recorder.
type bareWriter struct{ *httptest.ResponseRecorder }

func (b bareWriter) Header() http.Header         { return b.ResponseRecorder.Header() }
func (b bareWriter) Write(p []byte) (int, error) { return b.ResponseRecorder.Write(p) }
func (b bareWriter) WriteHeader(code int)        { b.ResponseRecorder.WriteHeader(code) }

// readerFromWriter counts ReadFrom calls to prove the fast path is used.
type readerFromWriter struct {
	*httptest.ResponseRecorder
	readFroms int
}

func (w *readerFromWriter) ReadFrom(r io.Reader) (int64, error) {
	w.readFroms++
	data, err := io.ReadAll(r)
	if err != nil {
		return 0, err
	}
	n, err := w.ResponseRecorder.Write(data)
	return int64(n), err
}

func TestStatusRecorderForwardsReadFrom(t *testing.T) {
	under := &readerFromWriter{ResponseRecorder: httptest.NewRecorder()}
	rec := &statusRecorder{ResponseWriter: under, status: http.StatusOK}
	// Hide strings.Reader's WriterTo so io.Copy probes the destination's
	// ReaderFrom instead.
	n, err := io.Copy(rec, struct{ io.Reader }{strings.NewReader("payload")})
	if err != nil || n != 7 {
		t.Fatalf("io.Copy = %d, %v", n, err)
	}
	if under.readFroms != 1 {
		t.Errorf("underlying ReadFrom calls = %d, want 1 (fast path)", under.readFroms)
	}
	if got := under.Body.String(); got != "payload" {
		t.Errorf("body = %q, want %q", got, "payload")
	}

	// Without an underlying ReaderFrom the copy still lands.
	plain := httptest.NewRecorder()
	rec = &statusRecorder{ResponseWriter: bareWriter{plain}}
	if _, err := io.Copy(rec, struct{ io.Reader }{strings.NewReader("fallback")}); err != nil {
		t.Fatal(err)
	}
	if got := plain.Body.String(); got != "fallback" {
		t.Errorf("fallback body = %q, want %q", got, "fallback")
	}
}

// metricSum totals a counter family across label sets.
func metricSum(snap obs.Snapshot, name string) float64 {
	var total float64
	for _, c := range snap.Counters {
		if c.Name == name {
			total += float64(c.Value)
		}
	}
	return total
}

// counterValue returns one labeled counter's value.
func counterValue(snap obs.Snapshot, name, labelKey, labelVal string) float64 {
	var total float64
	for _, c := range snap.Counters {
		if c.Name != name {
			continue
		}
		for _, l := range c.Labels {
			if l.Key == labelKey && l.Value == labelVal {
				total += float64(c.Value)
			}
		}
	}
	return total
}
