package proxy

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/cookiejar"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"msite/internal/admission"
	"msite/internal/cache"
	"msite/internal/obs"
	"msite/internal/origin"
	"msite/internal/session"
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

func newGatedRig(t *testing.T, adm *admission.Limiter) *gatedRig {
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
		Spec:      forumSpec(originSrv.URL),
		Sessions:  sessions,
		Cache:     cache.New(),
		Admission: adm,
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
	g := newGatedRig(t, nil)
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
	for g.p.coalesce.Waiters(key) < crowd {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d clients joined the build", g.p.coalesce.Waiters(key), crowd)
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
	g := newGatedRig(t, nil)

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

// TestQueueFullSheds503: with one pipeline slot, no queue, and the slot
// held, a second build sheds immediately with 503 + Retry-After instead
// of hanging.
func TestQueueFullSheds503(t *testing.T) {
	adm, err := admission.NewLimiter(admission.LimiterConfig{MaxConcurrent: 1, QueueLen: -1})
	if err != nil {
		t.Fatal(err)
	}
	g := newGatedRig(t, adm)
	defer g.open()

	// The first cold client takes the only slot and blocks on the origin.
	first := make(chan struct{})
	go func() {
		defer close(first)
		resp, err := http.Get(g.proxy.URL + "/")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	deadline := time.Now().Add(10 * time.Second)
	for adm.Active() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("first build never acquired the slot")
		}
		time.Sleep(time.Millisecond)
	}

	// A personalized second client cannot coalesce and cannot queue.
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

	resp, err = authed.Get(g.proxy.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503; body %.80s", resp.StatusCode, body)
	}
	assertRetryAfter(t, resp)
	if strings.Contains(string(body), "admission") {
		t.Errorf("shed body leaks internal detail: %q", body)
	}

	g.open()
	<-first
	snap := g.p.Obs().Snapshot()
	// One shed, counted once: by the proxy that answered it, not again
	// by the limiter that refused it.
	if got := counterValue(snap, "msite_admission_shed_total", "reason", admission.ReasonQueueFull); got != 1 {
		t.Errorf(`msite_admission_shed_total{reason="queue_full"} = %v, want 1`, got)
	}
}

// TestStreamedQueueFullShedCountedOnce: with -stream the entry's 200
// and head are on the wire before admission runs, so a queue-full shed
// closes the document in-band instead of answering 503. It is still one
// shed, counted once.
func TestStreamedQueueFullShedCountedOnce(t *testing.T) {
	adm, err := admission.NewLimiter(admission.LimiterConfig{MaxConcurrent: 1, QueueLen: -1})
	if err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	var gateOnce sync.Once
	open := func() { gateOnce.Do(func() { close(gate) }) }
	defer open()
	rig := newStreamRig(t, Config{Stream: true, Admission: adm}, func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/" {
				select {
				case <-gate:
				case <-r.Context().Done():
					return
				}
			}
			h.ServeHTTP(w, r)
		})
	})

	// The first cold client takes the only slot and blocks on the origin.
	first := make(chan struct{})
	go func() {
		defer close(first)
		resp, err := rig.client.Get(rig.proxy.URL + "/")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	deadline := time.Now().Add(10 * time.Second)
	for adm.Active() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("first build never acquired the slot")
		}
		time.Sleep(time.Millisecond)
	}

	// A personalized second client cannot coalesce and cannot queue.
	jar, err := cookiejar.New(nil)
	if err != nil {
		t.Fatal(err)
	}
	authed := &http.Client{Jar: jar, Timeout: 30 * time.Second}
	resp, err := authed.PostForm(rig.proxy.URL+"/auth?back=/stats", map[string][]string{
		"username": {"u"}, "password": {"p"},
	})
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	resp, err = authed.Get(rig.proxy.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "retry shortly</p></body></html>") {
		t.Fatalf("status %d, body %q: want a 200 closed in-band", resp.StatusCode, body)
	}

	open()
	<-first
	snap := rig.p.Obs().Snapshot()
	if got := counterValue(snap, "msite_admission_shed_total", "reason", admission.ReasonQueueFull); got != 1 {
		t.Errorf(`msite_admission_shed_total{reason="queue_full"} = %v, want 1`, got)
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

// TestStatusRecorderForwardsFlusher is the regression test for the
// recorder hiding http.Flusher from streaming handlers.
func TestStatusRecorderForwardsFlusher(t *testing.T) {
	rr := httptest.NewRecorder()
	rec := &statusRecorder{ResponseWriter: rr, status: http.StatusOK}

	var w http.ResponseWriter = rec
	f, ok := w.(http.Flusher)
	if !ok {
		t.Fatal("statusRecorder does not expose http.Flusher")
	}
	f.Flush()
	if !rr.Flushed {
		t.Error("Flush did not reach the underlying writer")
	}

	// A bare writer without Flush support must not panic.
	bare := &statusRecorder{ResponseWriter: bareWriter{httptest.NewRecorder()}}
	bare.Flush()
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

// assertRetryAfter checks the response carries a positive integral
// Retry-After header — a shed without a hint invites a retry storm.
func assertRetryAfter(t *testing.T, resp *http.Response) {
	t.Helper()
	ra := resp.Header.Get("Retry-After")
	if ra == "" {
		t.Error("missing Retry-After header")
		return
	}
	secs, err := strconv.Atoi(ra)
	if err != nil || secs < 1 {
		t.Errorf("Retry-After = %q, want integer >= 1", ra)
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
