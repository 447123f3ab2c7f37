package proxy

import (
	"bytes"
	"io"
	"log/slog"
	"maps"
	"net/http"
	"net/http/cookiejar"
	"net/http/httptest"
	"regexp"
	"slices"
	"strings"
	"sync"
	"testing"

	"msite/internal/cache"
	"msite/internal/obs"
	"msite/internal/origin"
	"msite/internal/session"
)

// obsRig is newRig plus a shared registry and optional logger.
func obsRig(t *testing.T, reg *obs.Registry, logger *slog.Logger) *testRig {
	t.Helper()
	forum := origin.NewForum(origin.DefaultForumConfig())
	originSrv := httptest.NewServer(forum.Handler())
	t.Cleanup(originSrv.Close)

	sessions, err := session.NewManager(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	sharedCache := cache.New()
	sharedCache.SetObs(reg)
	p, err := New(Config{
		Spec:     forumSpec(originSrv.URL),
		Sessions: sessions,
		Cache:    sharedCache,
		Obs:      reg,
		Logger:   logger,
	})
	if err != nil {
		t.Fatal(err)
	}
	proxySrv := httptest.NewServer(p)
	t.Cleanup(proxySrv.Close)
	jar, err := cookiejar.New(nil)
	if err != nil {
		t.Fatal(err)
	}
	return &testRig{origin: originSrv, proxy: proxySrv, p: p, client: &http.Client{Jar: jar}}
}

func TestPipelineStagesObserved(t *testing.T) {
	reg := obs.NewRegistry()
	rig := obsRig(t, reg, nil)
	rig.get(t, "/")
	rig.get(t, "/subpage/login")

	snap := reg.Snapshot()
	// The entry request runs the full pipeline: every stage histogram
	// must have at least one observation and ordered quantiles.
	for _, stage := range []string{
		"fetch", "filter", "subres", "attr", "subpage_split",
		"layout", "raster", "encode", "adapt_total",
	} {
		h, ok := snap.Histogram(obs.StageHistogram, "stage", stage)
		if !ok || h.Count == 0 {
			t.Fatalf("stage %q not observed (ok=%v count=%d)", stage, ok, h.Count)
		}
		if h.P99 < h.P50 {
			t.Fatalf("stage %q quantiles inverted: p50=%v p99=%v", stage, h.P50, h.P99)
		}
	}

	// The build found a slot free, so it did not wait for one.
	if h, ok := snap.Histogram(obs.StageHistogram, "stage", "build_wait"); ok && h.Count != 0 {
		t.Fatalf("an uncontended build recorded %d build_wait spans", h.Count)
	}

	// Per-handler request counters.
	c, ok := snap.Counter("msite_proxy_requests_total", "handler", "entry", "site", "sawdust")
	if !ok || c.Value != 1 {
		t.Fatalf("entry counter = %+v ok=%v", c, ok)
	}
	c, ok = snap.Counter("msite_proxy_requests_total", "handler", "subpage", "site", "sawdust")
	if !ok || c.Value != 1 {
		t.Fatalf("subpage counter = %+v ok=%v", c, ok)
	}

	// Request latency histograms per handler.
	if h, ok := snap.Histogram("msite_http_request_seconds", "handler", "entry"); !ok || h.Count != 1 {
		t.Fatalf("request histogram = %+v ok=%v", h, ok)
	}

	// Cache metrics flow through the shared registry (snapshot fill).
	if c, ok := snap.Counter("msite_cache_fills_total"); !ok || c.Value == 0 {
		t.Fatalf("cache fills = %+v ok=%v", c, ok)
	}

	// Live-session gauge registered by the proxy.
	found := false
	for _, g := range snap.Gauges {
		if g.Name == "msite_sessions_live" && g.Value >= 1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("live session gauge missing: %+v", snap.Gauges)
	}
}

func TestTracesRecordCacheOutcome(t *testing.T) {
	reg := obs.NewRegistry()
	rig := obsRig(t, reg, nil)
	rig.get(t, "/") // cold: fill
	rig.get(t, "/") // warm: shared-cache hit

	var hit, miss bool
	for _, tr := range reg.RecentTraces() {
		if tr.Name != "entry" {
			continue
		}
		switch tr.Attrs["cache"] {
		case "hit":
			hit = true
		case "miss":
			miss = true
		}
		if tr.Attrs["session"] == "" {
			t.Fatalf("trace missing session annotation: %+v", tr.Attrs)
		}
	}
	if !hit || !miss {
		t.Fatalf("cache outcomes hit=%v miss=%v", hit, miss)
	}
}

func TestRequestLogging(t *testing.T) {
	var buf bytes.Buffer
	var mu sync.Mutex
	logger := slog.New(slog.NewTextHandler(&lockedWriter{w: &buf, mu: &mu}, nil))
	reg := obs.NewRegistry()
	rig := obsRig(t, reg, logger)
	rig.get(t, "/")

	mu.Lock()
	out := buf.String()
	mu.Unlock()
	for _, want := range []string{
		"msg=request", "handler=entry", "site=sawdust", "status=200",
		"session=", "duration=",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("log line missing %q:\n%s", want, out)
		}
	}

	// The line's keys are the request's own, then the trace's
	// annotations sorted by key.
	var line string
	for _, l := range strings.Split(out, "\n") {
		if strings.Contains(l, "msg=request") {
			line = l
		}
	}
	var keys []string
	for _, m := range regexp.MustCompile(`(?:^| )([a-z_]+)=`).FindAllStringSubmatch(line, -1) {
		keys = append(keys, m[1])
	}
	traces := reg.RecentTraces()
	if len(traces) != 1 {
		t.Fatalf("%d traces, want 1", len(traces))
	}
	notes := slices.Sorted(maps.Keys(traces[0].Attrs))
	want := append([]string{"time", "level", "msg", "trace", "site", "handler", "path", "status", "duration"}, notes...)
	if !slices.Equal(keys, want) {
		t.Fatalf("log line keys %v, want %v:\n%s", keys, want, line)
	}
}

// lockedWriter serializes concurrent log writes in tests.
type lockedWriter struct {
	w  io.Writer
	mu *sync.Mutex
}

func (l *lockedWriter) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.Write(p)
}

// TestConcurrentServingAndScrapes drives parallel clients through the
// full adaptation pipeline while scraping the registry — the integration
// end of the concurrent metric writes + scrapes acceptance criterion
// (run under -race in CI).
func TestConcurrentServingAndScrapes(t *testing.T) {
	reg := obs.NewRegistry()
	rig := obsRig(t, reg, nil)

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			jar, _ := cookiejar.New(nil)
			client := &http.Client{Jar: jar}
			for _, path := range []string{"/", "/subpage/login", "/stats", "/"} {
				resp, err := client.Get(rig.proxy.URL + path)
				if err != nil {
					t.Error(err)
					return
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				_ = resp.Body.Close()
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			_ = reg.Snapshot()
			_ = reg.RecentTraces()
		}
	}()
	wg.Wait()
	<-done

	snap := reg.Snapshot()
	c, ok := snap.Counter("msite_proxy_requests_total", "handler", "entry", "site", "sawdust")
	if !ok || c.Value != 8 {
		t.Fatalf("entry requests = %+v ok=%v, want 8", c, ok)
	}
	if rig.p.Stats().Requests != 16 {
		t.Fatalf("total requests = %d, want 16", rig.p.Stats().Requests)
	}
}
