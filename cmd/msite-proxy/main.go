// Command msite-proxy runs the m.Site content adaptation proxy for an
// adaptation spec, without the code-generation step (the generated
// proxies embed their spec; this tool loads one at startup).
//
// Usage:
//
//	msite-proxy -spec spec.json -addr :8900 -sessions /tmp/msite
//	msite-proxy -spec page1.json -spec page2.json   # multi-page hosting
//	msite-proxy -spec spec.json -metrics=false -log-level debug
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"time"

	"msite/internal/core"
	"msite/internal/spec"
)

// specList accumulates repeated -spec flags.
type specList []string

func (s *specList) String() string { return fmt.Sprint(*s) }

func (s *specList) Set(v string) error {
	*s = append(*s, v)
	return nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "msite-proxy:", err)
		os.Exit(1)
	}
}

func run() error {
	var specPaths specList
	flag.Var(&specPaths, "spec", "adaptation spec JSON (repeatable for multi-page hosting)")
	addr := flag.String("addr", ":8900", "listen address")
	sessions := flag.String("sessions", "./msite-sessions", "session directory root")
	width := flag.Int("width", 0, "server-side render width override")
	gcEvery := flag.Duration("gc", 10*time.Minute, "session GC interval")
	metrics := flag.Bool("metrics", true, "mount /metrics and /debug/traces")
	logLevel := flag.String("log-level", "info", "request log level: debug|info|warn|error|off")
	cacheMaxBytes := flag.Int64("cache-max-bytes", 0, "render cache byte budget, LRU-evicted past it (0 = unbounded)")
	fetchTimeout := flag.Duration("fetch-timeout", 30*time.Second, "per-request origin deadline")
	storeDir := flag.String("store-dir", "", "durable render store directory; restarts rehydrate adapted content from it (empty = no persistence)")
	repairRules := flag.String("repair-rules", "", "mobile-repair rules run over every adapted page post-attr: comma-separated rule names or \"all\" (empty = off)")
	parityCheck := flag.Bool("parity-check", false, "validate content parity of origin vs adapted closure on every build (score via /metrics and /debug/parity)")
	parityMinScore := flag.Float64("parity-min-score", 0, "fail builds whose parity score drops below this, in [0, 1]; above 0 it implies -parity-check (0 = report only)")
	flag.Parse()

	if len(specPaths) == 0 {
		return fmt.Errorf("-spec is required")
	}
	logger, err := newLogger(*logLevel)
	if err != nil {
		return err
	}
	cfg := core.Config{
		SessionRoot:   *sessions,
		ViewportWidth: *width,
		Logger:        logger,
		CacheMaxBytes: *cacheMaxBytes,
		FetchTimeout:  *fetchTimeout,

		StoreDir: *storeDir,

		RepairRules:    *repairRules,
		ParityCheck:    *parityCheck,
		ParityMinScore: *parityMinScore,
	}

	if len(specPaths) > 1 {
		specs := make([]*spec.Spec, 0, len(specPaths))
		for _, path := range specPaths {
			data, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			sp, err := spec.Parse(data)
			if err != nil {
				return fmt.Errorf("%s: %w", path, err)
			}
			specs = append(specs, sp)
		}
		mf, err := core.NewMulti(specs, cfg)
		if err != nil {
			return err
		}
		go gcLoop(mf.Sessions(), *gcEvery)
		fmt.Printf("m.Site multi-proxy hosting %v on %s\n", mf.Sites(), *addr)
		h := mf.HandlerWithMetrics()
		if !*metrics {
			h = mf.Handler()
		}
		return serve(*addr, h)
	}

	data, err := os.ReadFile(specPaths[0])
	if err != nil {
		return err
	}
	fw, err := core.NewFromJSON(data, cfg)
	if err != nil {
		return err
	}

	go gcLoop(fw.Sessions(), *gcEvery)
	fmt.Printf("m.Site proxy %q for %s on %s\n", fw.Spec().Name, fw.Spec().Origin, *addr)
	h := fw.HandlerWithMetrics()
	if !*metrics {
		h = fw.Handler()
	}
	return serve(*addr, h)
}

// serve mirrors core's server settings for the handler chosen by the
// -metrics flag.
func serve(addr string, h http.Handler) error {
	srv := &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: 10 * time.Second,
	}
	return srv.ListenAndServe()
}

// newLogger builds the request logger for -log-level; "off" disables
// logging entirely.
func newLogger(level string) (*slog.Logger, error) {
	var lvl slog.Level
	switch level {
	case "debug":
		lvl = slog.LevelDebug
	case "info":
		lvl = slog.LevelInfo
	case "warn":
		lvl = slog.LevelWarn
	case "error":
		lvl = slog.LevelError
	case "off":
		return nil, nil
	default:
		return nil, fmt.Errorf("unknown -log-level %q", level)
	}
	return slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: lvl})), nil
}

// gcLoop collects idle sessions for the life of the process.
func gcLoop(sessions interface{ GC() int }, every time.Duration) {
	ticker := time.NewTicker(every)
	defer ticker.Stop()
	for range ticker.C {
		if n := sessions.GC(); n > 0 {
			fmt.Printf("gc: collected %d idle sessions\n", n)
		}
	}
}
