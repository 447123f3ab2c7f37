package experiments

import (
	"fmt"
	"net/http"
	"net/http/cookiejar"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"time"

	"msite/internal/cache"
	"msite/internal/css"
	"msite/internal/fetch"
	"msite/internal/html"
	"msite/internal/layout"
	"msite/internal/origin"
	"msite/internal/proxy"
	"msite/internal/raster"
	"msite/internal/session"
)

// LatencyHandler wraps h, delaying every response by d — a stand-in for
// origin round-trip time, so the fetch-overlap ablations measure a
// realistic WAN origin instead of a loopback one.
func LatencyHandler(h http.Handler, d time.Duration) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if d > 0 {
			time.Sleep(d)
		}
		h.ServeHTTP(w, r)
	})
}

// ParallelConfig tunes the serial-vs-parallel ablation; the zero value
// uses a 15 ms origin latency, the fetcher's default worker count, and
// best-of-3 trials.
type ParallelConfig struct {
	// Latency is the injected per-request origin delay.
	Latency time.Duration
	// Workers is the parallel-mode worker count for batch fetches.
	Workers int
	// Trials is how many times each mode runs; the minimum is reported.
	Trials int
}

// ParallelRow is one serial-vs-parallel comparison.
type ParallelRow struct {
	Name       string  `json:"name"`
	SerialMS   float64 `json:"serial_ms"`
	ParallelMS float64 `json:"parallel_ms"`
	Speedup    float64 `json:"speedup"`
}

// ParallelReport is the PR's ablation record (BENCH_PR2.json). The host
// shape is recorded alongside the numbers: the paint row is CPU-bound,
// so its speedup is bounded by GOMAXPROCS, while the fetch and
// cold-adaptation rows overlap origin latency and win even on one core.
type ParallelReport struct {
	GOMAXPROCS      int           `json:"gomaxprocs"`
	NumCPU          int           `json:"num_cpu"`
	OriginLatencyMS float64       `json:"origin_latency_ms"`
	Workers         int           `json:"fetch_workers"`
	Trials          int           `json:"trials"`
	Rows            []ParallelRow `json:"rows"`
}

// ParallelAblation measures the PR's three parallelism sites serial vs
// parallel against a latency-injected internal origin: batch subresource
// fetch, band-parallel snapshot paint, and the full cold adaptation
// pipeline (fetch + adapt + raster).
func ParallelAblation(cfg ParallelConfig) (*ParallelReport, error) {
	if cfg.Latency <= 0 {
		cfg.Latency = 15 * time.Millisecond
	}
	if cfg.Workers <= 0 {
		cfg.Workers = fetch.DefaultWorkers
	}
	if cfg.Trials <= 0 {
		cfg.Trials = 3
	}

	forum := origin.NewForum(origin.DefaultForumConfig())
	srv := httptest.NewServer(LatencyHandler(forum.Handler(), cfg.Latency))
	defer srv.Close()

	rep := &ParallelReport{
		GOMAXPROCS:      runtime.GOMAXPROCS(0),
		NumCPU:          runtime.NumCPU(),
		OriginLatencyMS: float64(cfg.Latency) / float64(time.Millisecond),
		Workers:         cfg.Workers,
		Trials:          cfg.Trials,
	}

	fetchRow, src, err := measureFetch(srv.URL, cfg)
	if err != nil {
		return nil, err
	}
	rep.Rows = append(rep.Rows, fetchRow)

	paintRow, err := measurePaint(src, cfg)
	if err != nil {
		return nil, err
	}
	rep.Rows = append(rep.Rows, paintRow)

	coldRow, err := measureColdAdaptation(srv.URL, cfg)
	if err != nil {
		return nil, err
	}
	rep.Rows = append(rep.Rows, coldRow)
	return rep, nil
}

// bestOf reports the minimum wall-clock of trials runs of fn.
func bestOf(trials int, fn func() error) (time.Duration, error) {
	best := time.Duration(0)
	for i := 0; i < trials; i++ {
		start := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		if d := time.Since(start); best == 0 || d < best {
			best = d
		}
	}
	return best, nil
}

func row(name string, serial, parallel time.Duration) ParallelRow {
	r := ParallelRow{
		Name:       name,
		SerialMS:   float64(serial) / float64(time.Millisecond),
		ParallelMS: float64(parallel) / float64(time.Millisecond),
	}
	if parallel > 0 {
		r.Speedup = float64(serial) / float64(parallel)
	}
	return r
}

// measureFetch compares FetchAll at 1 worker vs cfg.Workers over the
// entry page's subresources, returning the entry source for the paint
// stage.
func measureFetch(originURL string, cfg ParallelConfig) (ParallelRow, string, error) {
	f := fetch.New(nil)
	page, err := f.Get(originURL + "/")
	if err != nil {
		return ParallelRow{}, "", fmt.Errorf("experiments: parallel ablation entry fetch: %w", err)
	}
	refs := fetch.Subresources(page.Doc(), page.URL)
	if len(refs) == 0 {
		return ParallelRow{}, "", fmt.Errorf("experiments: entry page has no subresources to fetch")
	}
	run := func(workers int) func() error {
		return func() error {
			for _, res := range f.FetchAll(refs, workers) {
				if res.Err != nil {
					return res.Err
				}
			}
			return nil
		}
	}
	serial, err := bestOf(cfg.Trials, run(1))
	if err != nil {
		return ParallelRow{}, "", err
	}
	parallel, err := bestOf(cfg.Trials, run(cfg.Workers))
	if err != nil {
		return ParallelRow{}, "", err
	}
	name := fmt.Sprintf("subresource fetch (%d resources)", len(refs))
	return row(name, serial, parallel), string(page.Body), nil
}

// measurePaint compares the rasterizer at 1 band vs GOMAXPROCS bands on
// the laid-out entry page. CPU-bound: on a single-core host the two tie.
func measurePaint(src string, cfg ParallelConfig) (ParallelRow, error) {
	doc := html.Tidy(src)
	styler := css.StylerForDocument(doc)
	res := layout.Layout(doc, styler, layout.Viewport{Width: 1024})
	run := func(workers int) func() error {
		return func() error {
			raster.Paint(res, raster.Options{Workers: workers})
			return nil
		}
	}
	// Untimed warm-up: the first paint pays one-time allocator and cache
	// costs that would otherwise bias whichever mode runs first.
	_ = run(1)()
	serial, err := bestOf(cfg.Trials, run(1))
	if err != nil {
		return ParallelRow{}, err
	}
	parallel, err := bestOf(cfg.Trials, run(0)) // 0 = GOMAXPROCS bands
	if err != nil {
		return ParallelRow{}, err
	}
	return row("snapshot paint (band-parallel)", serial, parallel), nil
}

// measureColdAdaptation times a fresh client's first request through the
// whole proxy pipeline, once with every stage serial and once with the
// parallel defaults. Each trial gets a fresh proxy, session root, and
// cache so every request is a true cold start.
func measureColdAdaptation(originURL string, cfg ParallelConfig) (ParallelRow, error) {
	coldRequest := func(pcfg proxy.Config) error {
		dir, err := os.MkdirTemp("", "msite-ablation-*")
		if err != nil {
			return err
		}
		defer func() { _ = os.RemoveAll(dir) }()
		sessions, err := session.NewManager(dir)
		if err != nil {
			return err
		}
		pcfg.Spec = SpecForForum(strings.TrimSuffix(originURL, "/"))
		pcfg.Sessions = sessions
		pcfg.Cache = cache.New()
		p, err := proxy.New(pcfg)
		if err != nil {
			return err
		}
		proxySrv := httptest.NewServer(p)
		defer proxySrv.Close()
		jar, err := cookiejar.New(nil)
		if err != nil {
			return err
		}
		client := &http.Client{Jar: jar, Timeout: 2 * time.Minute}
		resp, err := client.Get(proxySrv.URL + "/")
		if err != nil {
			return err
		}
		defer func() { _ = resp.Body.Close() }()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("experiments: cold adaptation status %d", resp.StatusCode)
		}
		return nil
	}
	serial, err := bestOf(cfg.Trials, func() error {
		return coldRequest(proxy.Config{FetchWorkers: 1, RasterWorkers: 1})
	})
	if err != nil {
		return ParallelRow{}, err
	}
	parallel, err := bestOf(cfg.Trials, func() error {
		return coldRequest(proxy.Config{FetchWorkers: cfg.Workers})
	})
	if err != nil {
		return ParallelRow{}, err
	}
	return row("cold adaptation (end-to-end)", serial, parallel), nil
}

// FormatParallel renders the ablation like the other experiment tables.
func FormatParallel(rep *ParallelReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Parallel pipeline ablation (origin latency %.0f ms, %d fetch workers, best of %d; GOMAXPROCS=%d, NumCPU=%d)\n",
		rep.OriginLatencyMS, rep.Workers, rep.Trials, rep.GOMAXPROCS, rep.NumCPU)
	fmt.Fprintf(&b, "%-38s %12s %12s %9s\n", "Stage", "serial", "parallel", "speedup")
	for _, r := range rep.Rows {
		fmt.Fprintf(&b, "%-38s %10.1fms %10.1fms %8.2fx\n", r.Name, r.SerialMS, r.ParallelMS, r.Speedup)
	}
	if rep.GOMAXPROCS == 1 {
		b.WriteString("note: single-core host — the CPU-bound paint row cannot beat serial here;\n")
		b.WriteString("fetch and cold-adaptation wins come from overlapping origin latency.\n")
	}
	return b.String()
}
