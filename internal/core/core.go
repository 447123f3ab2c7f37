// Package core is the public facade of the m.Site framework: one import
// wires the adaptation spec, session manager, shared render cache, and
// multi-session proxy into a serving http.Handler. Generated proxy code
// (see internal/gen), the cmd tools, and the examples all build on this
// package.
package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"time"

	"msite/internal/cache"
	"msite/internal/fetch"
	"msite/internal/gen"
	"msite/internal/obs"
	"msite/internal/proxy"
	"msite/internal/quality"
	"msite/internal/session"
	"msite/internal/spec"
	"msite/internal/store"
)

// Config wires a Framework.
type Config struct {
	// SessionRoot is the directory the session manager creates one
	// directory per session under (required). The directories stay
	// empty: generated content lives in the in-memory Bundle a session
	// references.
	SessionRoot string
	// ViewportWidth overrides the spec's server-side render width.
	ViewportWidth int
	// FetchTimeout bounds each origin request.
	FetchTimeout time.Duration
	// Logger enables structured per-request logging in the proxy; nil
	// disables it.
	Logger *slog.Logger
	// CacheMaxBytes bounds the shared render cache; least-recently-used
	// entries are evicted past it (the -cache-max-bytes knob). 0 means
	// unbounded (TTL-only). Expired entries are swept every minute.
	CacheMaxBytes int64
	// StoreDir enables the durable render store (the -store-dir knob): a
	// crash-safe disk tier under the render cache. Adapted bundles,
	// shared snapshots, and subpage artifacts persist there, so a
	// restarted framework serves them without re-running the pipeline.
	// Empty disables persistence.
	StoreDir string
	// RepairRules selects the mobile-repair rules run over every adapted
	// document and subpage after the attribute phase (the -repair-rules
	// knob): a comma-separated list of internal/quality rule names, or
	// "all". Empty disables the repair pass.
	RepairRules string
	// ParityCheck enables the content-parity validator (the
	// -parity-check knob): every build diffs the origin's text/link/form
	// inventory against the adapted closure, reporting the score via
	// metrics, adaptation notes, and /debug/parity.
	ParityCheck bool
	// ParityMinScore fails a build loudly when its parity score drops
	// below this threshold (the -parity-min-score knob; 0 means report
	// only, 1 demands every non-sanctioned item survive). Above 0 it
	// turns the parity check on; it must lie in [0, 1].
	ParityMinScore float64
}

// buildCache wires the render cache: a plain in-memory cache, or — when
// StoreDir is set — a tiered cache over the durable store, rehydrated
// so a warm restart serves from disk instead of re-rendering.
func (cfg Config) buildCache(reg *obs.Registry) (cache.Layer, *store.Store, error) {
	l1 := cache.NewWithOptions(cfg.cacheOptions())
	if cfg.StoreDir == "" {
		l1.SetObs(reg)
		return l1, nil, nil
	}
	st, err := store.Open(store.Options{Dir: cfg.StoreDir})
	if err != nil {
		l1.Close()
		return nil, nil, err
	}
	st.SetObs(reg)
	tiered := cache.NewTiered(l1, st)
	tiered.SetObs(reg)
	tiered.Rehydrate(0)
	return tiered, st, nil
}

// cacheOptions maps the Config knobs onto the cache; its expiry
// sweeper runs every minute and stops with Close.
func (cfg Config) cacheOptions() cache.Options {
	return cache.Options{
		MaxBytes:      cfg.CacheMaxBytes,
		SweepInterval: time.Minute,
	}
}

// fetchRetries is how many times every origin fetcher retries an
// idempotent GET after a transient failure, with exponential backoff.
const fetchRetries = 2

// fetchOptions maps the Config knobs onto origin fetchers: timeout,
// the fixed retry policy and metrics.
func (cfg Config) fetchOptions(reg *obs.Registry) []fetch.Option {
	opts := []fetch.Option{fetch.WithRetries(fetchRetries), fetch.WithObs(reg)}
	if cfg.FetchTimeout > 0 {
		opts = append(opts, fetch.WithTimeout(cfg.FetchTimeout))
	}
	return opts
}

// instance is what a Framework and a MultiFramework both are: the
// proxies of one or several specs behind one handler, around one session
// manager, render cache (and store) and registry.
type instance struct {
	handler  http.Handler
	sites    []*proxy.Proxy // in name order
	sessions *session.Manager
	cache    cache.Layer
	store    *store.Store // nil without StoreDir
	obs      *obs.Registry
}

// Framework is a running m.Site instance for one adaptation spec, mounted
// at the root.
type Framework struct {
	*instance
	sp *spec.Spec
}

// MultiFramework hosts the proxies for several adapted pages under one
// handler (each at /p/<name>/), sharing sessions and the render cache.
type MultiFramework struct{ *instance }

// New builds a Framework from a validated spec.
func New(sp *spec.Spec, cfg Config) (*Framework, error) {
	if sp == nil {
		return nil, errors.New("core: nil spec")
	}
	inst, err := wire(cfg, func(pc proxy.Config) (http.Handler, []*proxy.Proxy, error) {
		pc.Spec = sp
		p, err := proxy.New(pc)
		return p, []*proxy.Proxy{p}, err
	})
	if err != nil {
		return nil, err
	}
	return &Framework{instance: inst, sp: sp}, nil
}

// NewMulti wires several specs into one composite handler.
func NewMulti(specs []*spec.Spec, cfg Config) (*MultiFramework, error) {
	inst, err := wire(cfg, func(pc proxy.Config) (http.Handler, []*proxy.Proxy, error) {
		multi, err := proxy.NewMulti(specs, pc)
		if err != nil {
			return nil, nil, err
		}
		var sites []*proxy.Proxy
		for _, name := range multi.Names() {
			p, _ := multi.Site(name)
			sites = append(sites, p)
		}
		return multi, sites, nil
	})
	if err != nil {
		return nil, err
	}
	return &MultiFramework{inst}, nil
}

// wire builds an instance: everything the Config describes, around the
// proxies mount makes from the one proxy.Config the knobs map onto.
func wire(cfg Config, mount func(proxy.Config) (http.Handler, []*proxy.Proxy, error)) (*instance, error) {
	if cfg.SessionRoot == "" {
		return nil, errors.New("core: SessionRoot required")
	}
	sessions, err := session.NewManager(cfg.SessionRoot)
	if err != nil {
		return nil, err
	}
	reg := obs.NewRegistry()
	sharedCache, st, err := cfg.buildCache(reg)
	if err != nil {
		return nil, err
	}
	inst := &instance{sessions: sessions, cache: sharedCache, store: st, obs: reg}
	fail := func(err error) (*instance, error) {
		inst.Close()
		return nil, err
	}
	sessions.InstrumentObs(reg)
	sessions.SetLogger(cfg.Logger)
	inst.handler, inst.sites, err = mount(proxy.Config{
		Sessions:       sessions,
		Cache:          sharedCache,
		ViewportWidth:  cfg.ViewportWidth,
		FetchOptions:   cfg.fetchOptions(reg),
		Obs:            reg,
		Logger:         cfg.Logger,
		PersistBundles: st != nil,
		RepairRules:    cfg.RepairRules,
		ParityCheck:    cfg.ParityCheck,
		ParityMinScore: cfg.ParityMinScore,
	})
	if err != nil {
		return fail(err)
	}
	return inst, nil
}

// NewFromJSON parses, validates, and wires a spec in one step — the
// entry point generated proxy code uses.
func NewFromJSON(specJSON []byte, cfg Config) (*Framework, error) {
	sp, err := spec.Parse(specJSON)
	if err != nil {
		return nil, err
	}
	return New(sp, cfg)
}

// Spec returns the framework's adaptation spec.
func (f *Framework) Spec() *spec.Spec { return f.sp }

// GenerateCode emits the standalone Go proxy source for this framework's
// spec — the m.Site "shell code" artifact.
func (f *Framework) GenerateCode(opts gen.Options) ([]byte, error) {
	return gen.GenerateProxyMain(f.sp, opts)
}

// Sites lists the mounted site names, sorted.
func (m *MultiFramework) Sites() []string {
	names := make([]string, len(m.sites))
	for i, p := range m.sites {
		names[i] = p.SiteName()
	}
	return names
}

// Handler returns the proxy handler (the composite one for several
// specs).
func (in *instance) Handler() http.Handler { return in.handler }

// Sessions exposes the session manager (for GC loops and tests).
func (in *instance) Sessions() *session.Manager { return in.sessions }

// Cache exposes the shared render cache layer (a *cache.Cache, or a
// *cache.Tiered when a durable store is configured).
func (in *instance) Cache() cache.Layer { return in.cache }

// CacheStats returns the shared cache counters.
func (in *instance) CacheStats() cache.Stats { return in.cache.Stats() }

// Store exposes the durable render store; nil without StoreDir.
func (in *instance) Store() *store.Store { return in.store }

// ProxyStats sums the per-site proxy work counters.
func (in *instance) ProxyStats() proxy.Stats {
	var total proxy.Stats
	for _, p := range in.sites {
		s := p.Stats()
		total.Requests += s.Requests
		total.Adaptations += s.Adaptations
		total.SnapshotRenders += s.SnapshotRenders
		total.SnapshotHits += s.SnapshotHits
	}
	return total
}

// Obs exposes the shared metric/trace registry.
func (in *instance) Obs() *obs.Registry { return in.obs }

// HandlerWithMetrics mounts the proxy plus the observability surface on
// one handler; the longer mux patterns win over the proxy's catch-all.
// It serves /metrics, /debug/traces, /debug/parity (the latest
// content-parity report per site, omitting sites that have none yet)
// and the pprof handlers.
func (in *instance) HandlerWithMetrics() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/metrics", obs.Handler(in.obs))
	mux.Handle("/debug/traces", obs.TracesHandler(in.obs))
	mux.HandleFunc("/debug/parity", func(w http.ResponseWriter, _ *http.Request) {
		out := make(map[string]*quality.Parity)
		for _, p := range in.sites {
			if report := p.ParityReport(); report != nil {
				out[p.SiteName()] = report
			}
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(out)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/", in.handler)
	return mux
}

// Close releases background resources: the cache's expiry sweeper and —
// when a durable store is configured — the write-through pool (drained
// first, so queued persists land) and the store itself. Safe to call
// more than once.
func (in *instance) Close() {
	in.cache.Close()
	if in.store != nil {
		_ = in.store.Close()
	}
}

// ListenAndServe serves the proxy (with the observability surface
// mounted) until the listener fails.
func (in *instance) ListenAndServe(addr string) error {
	srv := &http.Server{
		Addr:              addr,
		Handler:           in.HandlerWithMetrics(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	if err := srv.ListenAndServe(); err != nil {
		return fmt.Errorf("core: serving: %w", err)
	}
	return nil
}

// Serve serves the proxy (with the observability surface mounted) on an
// existing listener (tests and examples bind :0 and need the resolved
// address).
func (in *instance) Serve(l net.Listener) error {
	srv := &http.Server{
		Handler:           in.HandlerWithMetrics(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	if err := srv.Serve(l); err != nil {
		return fmt.Errorf("core: serving: %w", err)
	}
	return nil
}
