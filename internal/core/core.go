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
	"path/filepath"
	"time"

	"msite/internal/admission"
	"msite/internal/cache"
	"msite/internal/cluster"
	"msite/internal/fetch"
	"msite/internal/gen"
	"msite/internal/obs"
	"msite/internal/prefetch"
	"msite/internal/proxy"
	"msite/internal/quality"
	"msite/internal/session"
	"msite/internal/spec"
	"msite/internal/store"
)

// Config wires a Framework.
type Config struct {
	// SessionRoot is the directory each session's (empty) protected
	// subdirectory is created under (required).
	SessionRoot string
	// ViewportWidth overrides the spec's server-side render width.
	ViewportWidth int
	// SessionTTL bounds idle sessions (default session.DefaultTTL).
	SessionTTL time.Duration
	// FetchTimeout bounds each origin request.
	FetchTimeout time.Duration
	// Obs is the metric/trace registry shared by the proxy, cache,
	// fetcher, and session manager. Nil creates one (exposed via Obs()).
	Obs *obs.Registry
	// Logger enables structured per-request logging in the proxy; nil
	// disables it.
	Logger *slog.Logger
	// FetchWorkers bounds concurrent subresource downloads per
	// adaptation (the -fetch-workers knob). 0 uses the fetcher default;
	// 1 forces serial fetching.
	FetchWorkers int
	// RasterWorkers is the band parallelism of snapshot rasterization
	// (the -raster-workers knob). 0 uses GOMAXPROCS; 1 is serial.
	RasterWorkers int
	// CacheMaxBytes bounds the shared render cache; least-recently-used
	// entries are evicted past it (the -cache-max-bytes knob). 0 means
	// unbounded (TTL-only).
	CacheMaxBytes int64
	// CacheSweepInterval starts the cache's background expiry sweeper
	// on that period; stop it with Close. 0 disables the sweeper
	// (expired entries are then only dropped on access).
	CacheSweepInterval time.Duration
	// FetchRetries is how many times an idempotent origin GET is retried
	// after a transient failure, with exponential backoff (the
	// -fetch-retries knob). 0 disables retries.
	FetchRetries int
	// BreakerThreshold is the consecutive-failure count that trips an
	// origin's circuit breaker (the -breaker-threshold knob). 0 uses
	// fetch.DefaultBreakerThreshold; negative disables the breakers.
	BreakerThreshold int
	// BreakerCooldown is how long a tripped breaker rejects requests
	// before probing the origin again (the -breaker-cooldown knob).
	// 0 uses fetch.DefaultBreakerCooldown.
	BreakerCooldown time.Duration
	// ServeStale keeps serving previously adapted content (and expired
	// shared snapshots, revalidated in the background) when the origin
	// is unreachable (the -serve-stale knob).
	ServeStale bool
	// StaleFor bounds how long past expiry a shared snapshot stays
	// servable under ServeStale (the -stale-for knob). 0 uses
	// proxy.DefaultStaleFor.
	StaleFor time.Duration
	// MaxConcurrentAdaptations bounds how many adaptation pipelines run
	// at once (the -max-concurrent-adaptations knob); excess requests
	// wait in a bounded, deadline-aware queue and are shed with 503 +
	// Retry-After past it. 0 disables admission control.
	MaxConcurrentAdaptations int
	// AdmissionQueue is the wait-queue length behind the concurrency
	// limit (the -admission-queue knob). 0 defaults to 4× the
	// concurrency; negative means no queue (shed immediately when all
	// slots are busy).
	AdmissionQueue int
	// RateLimit is the per-client request budget in requests/second (the
	// -rate-limit knob); clients past their token bucket get 429 +
	// Retry-After. 0 disables rate limiting.
	RateLimit float64
	// RateBurst is the token-bucket depth behind RateLimit. 0 defaults
	// to max(5, 2×RateLimit).
	RateBurst float64
	// MaxSessions caps live sessions (the -max-sessions knob); past it,
	// first contacts are shed with 503 + Retry-After instead of
	// allocating session state. 0 means uncapped.
	MaxSessions int
	// StoreDir enables the durable render store (the -store-dir knob): a
	// crash-safe disk tier under the render cache. Adapted bundles,
	// shared snapshots, and subpage artifacts persist there, so a
	// restarted framework serves them without re-running the pipeline.
	// Empty disables persistence.
	StoreDir string
	// StoreMaxBytes bounds the store's live bytes on disk; least
	// recently accessed records are evicted past it (the
	// -store-max-bytes knob). 0 means unbounded.
	StoreMaxBytes int64
	// StoreFsync selects the store's durability policy (the -store-fsync
	// knob): "interval" (default; fsync on a short timer), "always"
	// (fsync every append), or "never" (leave it to the OS).
	StoreFsync string
	// SLOTargetP99 enables the latency objective (the -slo-target-p99
	// knob): at least 99% of proxied requests must complete within it.
	// 0 disables the objective.
	SLOTargetP99 time.Duration
	// SLOAvailability enables the availability objective (the
	// -slo-availability knob): the required non-5xx request fraction,
	// e.g. 0.999. 0 disables the objective.
	SLOAvailability float64
	// SLOWarmHitRatio enables the warm-hit objective: the required
	// render-cache hit fraction. 0 disables the objective.
	SLOWarmHitRatio float64
	// SLOInterval is the SLO evaluation tick (default
	// obs.DefaultSLOInterval).
	SLOInterval time.Duration
	// SLOFastWindow / SLOSlowWindow are the burn-rate windows (defaults
	// obs.DefaultSLOFastWindow / obs.DefaultSLOSlowWindow).
	SLOFastWindow, SLOSlowWindow time.Duration
	// SLOMinEvents gates burn-rate alerts on the fast window's event
	// count (default obs.DefaultSLOMinEvents).
	SLOMinEvents float64
	// IncidentDir enables the flight recorder (the -incident-dir knob):
	// incident bundles are captured there when the watchdog trips.
	// Empty disables it.
	IncidentDir string
	// IncidentMax bounds the on-disk incident ring (the -incident-max
	// knob; default obs.DefaultIncidentMax).
	IncidentMax int
	// IncidentCPUProfile is the capture's CPU-profile length (default
	// obs.DefaultCPUProfile).
	IncidentCPUProfile time.Duration
	// IncidentCooldown suppresses repeat captures for the same reason
	// (default obs.DefaultIncidentCooldown).
	IncidentCooldown time.Duration
	// IncidentInterval is the watchdog tick (default
	// obs.DefaultWatchInterval).
	IncidentInterval time.Duration
	// HealthInterval is the runtime health sampling tick (default
	// obs.DefaultHealthInterval). The sampler runs whenever the SLO
	// engine or the flight recorder is enabled.
	HealthInterval time.Duration
	// Stream enables flush-early entry serving (the -stream knob): the
	// overlay head is flushed before the origin fetch begins and the
	// snapshot renders in the background.
	Stream bool
	// ATFHeight is the streaming entry's above-the-fold boundary in
	// scaled snapshot pixels (the -atf-height knob). 0 uses
	// proxy.DefaultATFHeight.
	ATFHeight int
	// SnapshotProgressive serves streamed snapshots coarse-first with a
	// full-fidelity upgrade (the -snapshot-progressive knob).
	SnapshotProgressive bool
	// MinimalMarkup forces the MAML-style minimal-markup entry mode
	// everywhere (the -minimal-markup knob); individual specs can also
	// opt in via their minimal_markup attribute.
	MinimalMarkup bool
	// Prefetch enables the speculative pre-adaptation crawler (the
	// -prefetch knob): a background loop that walks the origin link
	// graph, ranks sites by live demand plus link proximity, pre-builds
	// their bundles through the admission controller's background lane,
	// and keeps them fresh with conditional (ETag/Last-Modified)
	// revalidation. Enabling it also enables bundle persistence even
	// without a StoreDir (bundles then live in the in-memory tier only).
	Prefetch bool
	// PrefetchTopN caps how many sites the crawler builds or revalidates
	// per cycle (the -prefetch-top-n knob; default 4).
	PrefetchTopN int
	// PrefetchInterval is the nominal gap between crawler cycles,
	// jittered ±20% (the -prefetch-interval knob; default 30s).
	PrefetchInterval time.Duration
	// PrefetchDepth is how many links deep the crawler walks from each
	// entry page when ranking by proximity (the -prefetch-depth knob;
	// default 1).
	PrefetchDepth int
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
	// only, 1 demands every non-sanctioned item survive). Requires
	// ParityCheck.
	ParityMinScore float64
	// ClusterListen enables cluster mode (the -cluster-listen knob): this
	// node's advertised base URL — its identity on the consistent-hash
	// ring, and the address peers reach its /internal/cluster/ endpoints
	// at. Empty disables clustering. Enabling it also enables bundle
	// persistence (the ring routes by bundle key).
	ClusterListen string
	// ClusterPeers is the full static fleet of advertised base URLs,
	// including this node (the -cluster-peers knob, comma-separated on
	// the command line). Self is added if absent.
	ClusterPeers []string
	// ClusterReplicas is the ring's virtual-node count per peer (the
	// -cluster-replicas knob; 0 uses cluster.DefaultReplicas).
	ClusterReplicas int
	// ClusterToken is the shared bearer token authenticating peer
	// transport requests (the -cluster-token knob). Empty serves
	// unauthenticated — acceptable only on a trusted internal network.
	ClusterToken string
	// ClusterProbeInterval is the peer liveness probe period (0 uses
	// cluster.DefaultProbeInterval).
	ClusterProbeInterval time.Duration
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
	fsync, err := store.ParseFsync(cfg.StoreFsync)
	if err != nil {
		l1.Close()
		return nil, nil, err
	}
	st, err := store.Open(store.Options{
		Dir:      cfg.StoreDir,
		MaxBytes: cfg.StoreMaxBytes,
		Fsync:    fsync,
	})
	if err != nil {
		l1.Close()
		return nil, nil, err
	}
	st.SetObs(reg)
	tiered := cache.NewTiered(l1, st, cache.TieredOptions{})
	tiered.SetObs(reg)
	tiered.Rehydrate(0)
	return tiered, st, nil
}

// admissionController maps the Config knobs onto an admission
// controller; nil (admit everything) when no knob is set.
func (cfg Config) admissionController() (*admission.Controller, error) {
	if cfg.MaxConcurrentAdaptations <= 0 && cfg.RateLimit <= 0 {
		return nil, nil
	}
	return admission.NewController(admission.Config{
		MaxConcurrent: cfg.MaxConcurrentAdaptations,
		QueueLen:      cfg.AdmissionQueue,
		RatePerSec:    cfg.RateLimit,
		Burst:         cfg.RateBurst,
	})
}

// obsTier is the second observability tier: SLO engine, runtime health
// sampler, and flight recorder, started together and stopped by Close.
type obsTier struct {
	slo      *obs.SLOEngine
	health   *obs.HealthSampler
	recorder *obs.Recorder
}

// sloObjectives maps the SLO knobs onto engine objectives.
func (cfg Config) sloObjectives() []obs.Objective {
	var objectives []obs.Objective
	if cfg.SLOTargetP99 > 0 {
		objectives = append(objectives, obs.AdaptationLatencyObjective(cfg.SLOTargetP99))
	}
	if cfg.SLOAvailability > 0 {
		objectives = append(objectives, obs.AvailabilityObjective(cfg.SLOAvailability))
	}
	if cfg.SLOWarmHitRatio > 0 {
		objectives = append(objectives, obs.WarmHitObjective(cfg.SLOWarmHitRatio))
	}
	return objectives
}

// buildObsTier wires the SLO engine, health sampler, and flight
// recorder from the Config knobs and starts them. Returns nil when no
// knob enables the tier (no objective, no incident dir) — the base
// tier (/metrics, /debug/traces) alone then serves, as before.
func (cfg Config) buildObsTier(reg *obs.Registry) (*obsTier, error) {
	objectives := cfg.sloObjectives()
	if len(objectives) == 0 && cfg.IncidentDir == "" {
		return nil, nil
	}
	tier := &obsTier{health: obs.NewHealthSampler(reg, cfg.HealthInterval)}
	if cfg.IncidentDir != "" {
		rec, err := obs.NewRecorder(reg, obs.RecorderConfig{
			Dir:          cfg.IncidentDir,
			MaxIncidents: cfg.IncidentMax,
			CPUProfile:   cfg.IncidentCPUProfile,
			Cooldown:     cfg.IncidentCooldown,
			Interval:     cfg.IncidentInterval,
			Health:       tier.health,
		})
		if err != nil {
			return nil, err
		}
		tier.recorder = rec
	}
	if len(objectives) > 0 {
		sloCfg := obs.SLOConfig{
			Interval:   cfg.SLOInterval,
			FastWindow: cfg.SLOFastWindow,
			SlowWindow: cfg.SLOSlowWindow,
			MinEvents:  cfg.SLOMinEvents,
		}
		if tier.recorder != nil {
			rec := tier.recorder
			sloCfg.OnAlert = func(a obs.Alert) {
				rec.Trip("slo_burn_"+a.Objective,
					fmt.Sprintf("burn rates fast=%.1f slow=%.1f (bad %.0f of %.0f in fast window)",
						a.FastBurn, a.SlowBurn, a.FastBad, a.FastTotal))
			}
		}
		tier.slo = obs.NewSLOEngine(reg, sloCfg, objectives...)
	}
	tier.health.Start()
	if tier.recorder != nil {
		tier.recorder.Start()
	}
	if tier.slo != nil {
		tier.slo.Start()
	}
	return tier, nil
}

// stop shuts the tier down; nil-safe.
func (t *obsTier) stop() {
	if t == nil {
		return
	}
	if t.slo != nil {
		t.slo.Stop()
	}
	if t.recorder != nil {
		t.recorder.Stop()
	}
	if t.health != nil {
		t.health.Stop()
	}
}

// cacheOptions maps the Config knobs onto the cache.
func (cfg Config) cacheOptions() cache.Options {
	return cache.Options{
		MaxBytes:      cfg.CacheMaxBytes,
		SweepInterval: cfg.CacheSweepInterval,
	}
}

// fetchOptions maps the Config knobs onto origin fetchers: timeout,
// retries, metrics, and one breaker set shared by every per-session
// fetcher (origin health outlives any one session).
func (cfg Config) fetchOptions(reg *obs.Registry) []fetch.Option {
	var opts []fetch.Option
	if cfg.FetchTimeout > 0 {
		opts = append(opts, fetch.WithTimeout(cfg.FetchTimeout))
	}
	if cfg.FetchRetries > 0 {
		opts = append(opts, fetch.WithRetries(cfg.FetchRetries))
	}
	if cfg.BreakerThreshold >= 0 {
		breakers := fetch.NewBreakerSet(fetch.BreakerConfig{
			Threshold: cfg.BreakerThreshold,
			Cooldown:  cfg.BreakerCooldown,
		})
		breakers.SetObs(reg)
		opts = append(opts, fetch.WithBreaker(breakers))
	}
	return append(opts, fetch.WithObs(reg))
}

// buildPrefetch maps the Prefetch knobs onto a crawler; nil when the
// feature is off. The crawler is created before the proxies so its
// RecordHit can be wired as their demand feed, pointed at the sites
// after they exist, and only then started. With a StoreDir, the demand
// ranking persists there across restarts.
func (cfg Config) buildPrefetch(reg *obs.Registry) *prefetch.Crawler {
	if !cfg.Prefetch {
		return nil
	}
	var stateFile string
	if cfg.StoreDir != "" {
		stateFile = filepath.Join(cfg.StoreDir, "prefetch-demand.json")
	}
	return prefetch.New(prefetch.Config{
		TopN:      cfg.PrefetchTopN,
		Interval:  cfg.PrefetchInterval,
		Depth:     cfg.PrefetchDepth,
		Obs:       reg,
		Logger:    cfg.Logger,
		StateFile: stateFile,
	})
}

// buildCluster maps the Cluster knobs onto a membership node; nil when
// cluster mode is off. The node is created before the proxies (its
// FetchBundle hook goes into their config), pointed at the sites after
// they exist, and only then started.
func (cfg Config) buildCluster(reg *obs.Registry) (*cluster.Node, error) {
	if cfg.ClusterListen == "" {
		return nil, nil
	}
	return cluster.NewNode(cluster.Config{
		Self:          cfg.ClusterListen,
		Peers:         cfg.ClusterPeers,
		Replicas:      cfg.ClusterReplicas,
		Token:         cfg.ClusterToken,
		ProbeInterval: cfg.ClusterProbeInterval,
		Retries:       cfg.FetchRetries,
		Obs:           reg,
		Logger:        cfg.Logger,
	})
}

// clusterHook adapts a possibly-nil *cluster.Node to the proxy's hook
// field without smuggling a typed nil into the interface.
func clusterHook(node *cluster.Node) proxy.ClusterHook {
	if node == nil {
		return nil
	}
	return node
}

// Framework is a running m.Site instance for one adaptation spec.
type Framework struct {
	sp       *spec.Spec
	sessions *session.Manager
	cache    cache.Layer
	store    *store.Store // nil without StoreDir
	proxy    *proxy.Proxy
	obs      *obs.Registry
	tier     *obsTier          // nil without SLO/incident knobs
	crawler  *prefetch.Crawler // nil without Prefetch
	cluster  *cluster.Node     // nil without ClusterListen
}

// New builds a Framework from a validated spec.
func New(sp *spec.Spec, cfg Config) (*Framework, error) {
	if sp == nil {
		return nil, errors.New("core: nil spec")
	}
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	if cfg.SessionRoot == "" {
		return nil, errors.New("core: SessionRoot required")
	}
	ttl := cfg.SessionTTL
	if ttl <= 0 {
		ttl = session.DefaultTTL
	}
	sessions, err := session.NewManagerWithClock(cfg.SessionRoot, ttl, time.Now)
	if err != nil {
		return nil, err
	}
	sessions.SetLimit(cfg.MaxSessions)
	reg := cfg.Obs
	if reg == nil {
		reg = obs.NewRegistry()
	}
	adm, err := cfg.admissionController()
	if err != nil {
		return nil, err
	}
	sharedCache, st, err := cfg.buildCache(reg)
	if err != nil {
		return nil, err
	}
	sessions.InstrumentObs(reg)
	sessions.SetLogger(cfg.Logger)
	crawler := cfg.buildPrefetch(reg)
	var demand func(string)
	if crawler != nil {
		demand = crawler.RecordHit
	}
	node, err := cfg.buildCluster(reg)
	if err != nil {
		sharedCache.Close()
		if st != nil {
			_ = st.Close()
		}
		return nil, err
	}
	p, err := proxy.New(proxy.Config{
		Spec:                sp,
		Sessions:            sessions,
		Cache:               sharedCache,
		ViewportWidth:       cfg.ViewportWidth,
		FetchOptions:        cfg.fetchOptions(reg),
		Obs:                 reg,
		Logger:              cfg.Logger,
		FetchWorkers:        cfg.FetchWorkers,
		RasterWorkers:       cfg.RasterWorkers,
		ServeStale:          cfg.ServeStale,
		StaleFor:            cfg.StaleFor,
		Admission:           adm,
		PersistBundles:      st != nil || cfg.Prefetch || node != nil,
		Stream:              cfg.Stream,
		ATFHeight:           cfg.ATFHeight,
		SnapshotProgressive: cfg.SnapshotProgressive,
		MinimalMarkup:       cfg.MinimalMarkup,
		Demand:              demand,
		RepairRules:         cfg.RepairRules,
		ParityCheck:         cfg.ParityCheck,
		ParityMinScore:      cfg.ParityMinScore,
		Cluster:             clusterHook(node),
	})
	if err != nil {
		sharedCache.Close()
		if st != nil {
			_ = st.Close()
		}
		return nil, err
	}
	tier, err := cfg.buildObsTier(reg)
	if err != nil {
		sharedCache.Close()
		if st != nil {
			_ = st.Close()
		}
		return nil, err
	}
	if crawler != nil {
		crawler.SetSites([]prefetch.Site{p})
		crawler.Start()
	}
	if node != nil {
		node.SetSites(map[string]cluster.Builder{sp.Name: p})
		node.Start()
	}
	return &Framework{sp: sp, sessions: sessions, cache: sharedCache, store: st, proxy: p, obs: reg, tier: tier, crawler: crawler, cluster: node}, nil
}

// MultiFramework hosts the proxies for several adapted pages under one
// handler (each at /p/<name>/), sharing sessions and the render cache.
type MultiFramework struct {
	sessions *session.Manager
	cache    cache.Layer
	store    *store.Store // nil without StoreDir
	multi    *proxy.MultiProxy
	obs      *obs.Registry
	tier     *obsTier          // nil without SLO/incident knobs
	crawler  *prefetch.Crawler // nil without Prefetch
	cluster  *cluster.Node     // nil without ClusterListen
}

// NewMulti wires several specs into one composite handler.
func NewMulti(specs []*spec.Spec, cfg Config) (*MultiFramework, error) {
	if cfg.SessionRoot == "" {
		return nil, errors.New("core: SessionRoot required")
	}
	ttl := cfg.SessionTTL
	if ttl <= 0 {
		ttl = session.DefaultTTL
	}
	sessions, err := session.NewManagerWithClock(cfg.SessionRoot, ttl, time.Now)
	if err != nil {
		return nil, err
	}
	sessions.SetLimit(cfg.MaxSessions)
	reg := cfg.Obs
	if reg == nil {
		reg = obs.NewRegistry()
	}
	adm, err := cfg.admissionController()
	if err != nil {
		return nil, err
	}
	sharedCache, st, err := cfg.buildCache(reg)
	if err != nil {
		return nil, err
	}
	sessions.InstrumentObs(reg)
	sessions.SetLogger(cfg.Logger)
	crawler := cfg.buildPrefetch(reg)
	var demand func(string)
	if crawler != nil {
		demand = crawler.RecordHit
	}
	node, err := cfg.buildCluster(reg)
	if err != nil {
		sharedCache.Close()
		if st != nil {
			_ = st.Close()
		}
		return nil, err
	}
	multi, err := proxy.NewMulti(proxy.MultiConfig{
		Specs:               specs,
		Sessions:            sessions,
		Cache:               sharedCache,
		ViewportWidth:       cfg.ViewportWidth,
		FetchOptions:        cfg.fetchOptions(reg),
		Obs:                 reg,
		Logger:              cfg.Logger,
		FetchWorkers:        cfg.FetchWorkers,
		RasterWorkers:       cfg.RasterWorkers,
		ServeStale:          cfg.ServeStale,
		StaleFor:            cfg.StaleFor,
		Admission:           adm,
		PersistBundles:      st != nil || cfg.Prefetch || node != nil,
		Stream:              cfg.Stream,
		ATFHeight:           cfg.ATFHeight,
		SnapshotProgressive: cfg.SnapshotProgressive,
		MinimalMarkup:       cfg.MinimalMarkup,
		Demand:              demand,
		RepairRules:         cfg.RepairRules,
		ParityCheck:         cfg.ParityCheck,
		ParityMinScore:      cfg.ParityMinScore,
		Cluster:             clusterHook(node),
	})
	if err != nil {
		sharedCache.Close()
		if st != nil {
			_ = st.Close()
		}
		return nil, err
	}
	tier, err := cfg.buildObsTier(reg)
	if err != nil {
		sharedCache.Close()
		if st != nil {
			_ = st.Close()
		}
		return nil, err
	}
	if crawler != nil {
		var sites []prefetch.Site
		for _, name := range multi.Names() {
			if p, ok := multi.Site(name); ok {
				sites = append(sites, p)
			}
		}
		crawler.SetSites(sites)
		crawler.Start()
	}
	if node != nil {
		builders := make(map[string]cluster.Builder)
		for _, name := range multi.Names() {
			if p, ok := multi.Site(name); ok {
				builders[name] = p
			}
		}
		node.SetSites(builders)
		node.Start()
	}
	return &MultiFramework{sessions: sessions, cache: sharedCache, store: st, multi: multi, obs: reg, tier: tier, crawler: crawler, cluster: node}, nil
}

// Handler returns the composite handler.
func (m *MultiFramework) Handler() http.Handler { return m.multi }

// Obs exposes the shared metric/trace registry.
func (m *MultiFramework) Obs() *obs.Registry { return m.obs }

// MetricsHandler serves the registry at /metrics (Prometheus text or
// JSON, content-negotiated).
func (m *MultiFramework) MetricsHandler() http.Handler { return obs.Handler(m.obs) }

// TracesHandler serves recent request traces at /debug/traces.
func (m *MultiFramework) TracesHandler() http.Handler { return obs.TracesHandler(m.obs) }

// HandlerWithMetrics mounts the composite proxy plus the observability
// surface (/metrics, /debug/traces) on one handler.
func (m *MultiFramework) HandlerWithMetrics() http.Handler {
	return mountMetrics(m.multi, m.obs, m.tier, parityHandler(func() map[string]*quality.Parity {
		reports := make(map[string]*quality.Parity)
		for _, name := range m.multi.Names() {
			if p, ok := m.multi.Site(name); ok {
				reports[name] = p.ParityReport()
			}
		}
		return reports
	}), m.cluster)
}

// Sessions exposes the shared session manager.
func (m *MultiFramework) Sessions() *session.Manager { return m.sessions }

// Sites lists the mounted site names.
func (m *MultiFramework) Sites() []string { return m.multi.Names() }

// ProxyStats sums the per-site proxy work counters.
func (m *MultiFramework) ProxyStats() proxy.Stats {
	var total proxy.Stats
	for _, name := range m.multi.Names() {
		if p, ok := m.multi.Site(name); ok {
			s := p.Stats()
			total.Requests += s.Requests
			total.Adaptations += s.Adaptations
			total.SnapshotRenders += s.SnapshotRenders
			total.SnapshotHits += s.SnapshotHits
		}
	}
	return total
}

// ListenAndServe serves the composite proxy with the observability
// surface mounted at /metrics and /debug/traces.
func (m *MultiFramework) ListenAndServe(addr string) error {
	srv := &http.Server{
		Addr:              addr,
		Handler:           m.HandlerWithMetrics(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	if err := srv.ListenAndServe(); err != nil {
		return fmt.Errorf("core: serving: %w", err)
	}
	return nil
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

// Handler returns the proxy handler.
func (f *Framework) Handler() http.Handler { return f.proxy }

// Sessions exposes the session manager (for GC loops and tests).
func (f *Framework) Sessions() *session.Manager { return f.sessions }

// Cache exposes the shared render cache layer (a *cache.Cache, or a
// *cache.Tiered when a durable store is configured).
func (f *Framework) Cache() cache.Layer { return f.cache }

// Store exposes the durable render store; nil without StoreDir.
func (f *Framework) Store() *store.Store { return f.store }

// SLO exposes the SLO engine; nil unless an SLO knob is set.
func (f *Framework) SLO() *obs.SLOEngine {
	if f.tier == nil {
		return nil
	}
	return f.tier.slo
}

// Recorder exposes the flight recorder; nil without IncidentDir.
func (f *Framework) Recorder() *obs.Recorder {
	if f.tier == nil {
		return nil
	}
	return f.tier.recorder
}

// Health exposes the runtime health sampler; nil unless the second
// observability tier is enabled.
func (f *Framework) Health() *obs.HealthSampler {
	if f.tier == nil {
		return nil
	}
	return f.tier.health
}

// ProxyStats returns the proxy's work counters.
func (f *Framework) ProxyStats() proxy.Stats { return f.proxy.Stats() }

// Obs exposes the shared metric/trace registry.
func (f *Framework) Obs() *obs.Registry { return f.obs }

// MetricsHandler serves the registry at /metrics (Prometheus text or
// JSON, content-negotiated).
func (f *Framework) MetricsHandler() http.Handler { return obs.Handler(f.obs) }

// TracesHandler serves recent request traces at /debug/traces.
func (f *Framework) TracesHandler() http.Handler { return obs.TracesHandler(f.obs) }

// HandlerWithMetrics mounts the proxy plus the observability surface
// (/metrics, /debug/traces) on one handler.
func (f *Framework) HandlerWithMetrics() http.Handler {
	return mountMetrics(f.proxy, f.obs, f.tier, parityHandler(func() map[string]*quality.Parity {
		return map[string]*quality.Parity{f.sp.Name: f.proxy.ParityReport()}
	}), f.cluster)
}

// parityHandler serves the latest content-parity report per site as
// JSON at /debug/parity. Sites whose validator has not produced a
// report yet (ParityCheck off, or no build completed) are omitted.
func parityHandler(reports func() map[string]*quality.Parity) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		out := make(map[string]*quality.Parity)
		for name, p := range reports() {
			if p != nil {
				out[name] = p
			}
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(out)
	})
}

// mountMetrics composes a serving handler with the observability
// endpoints; the longer mux patterns win over the proxy's catch-all.
// The pprof handlers are mounted on the debug mux unconditionally;
// /slo and /debug/incidents appear when the second tier is enabled.
func mountMetrics(h http.Handler, reg *obs.Registry, tier *obsTier, parity http.Handler, node *cluster.Node) http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/metrics", obs.Handler(reg))
	mux.Handle("/debug/traces", obs.TracesHandler(reg))
	if parity != nil {
		mux.Handle("/debug/parity", parity)
	}
	if node != nil {
		mux.Handle(cluster.PathPrefix, node.Handler())
	}
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	if tier != nil {
		if tier.slo != nil {
			mux.Handle("/slo", obs.SLOHandler(tier.slo))
		}
		if tier.recorder != nil {
			mux.Handle("/debug/incidents", obs.IncidentsHandler(tier.recorder))
			mux.Handle("/debug/incidents/", obs.IncidentsHandler(tier.recorder))
		}
	}
	mux.Handle("/", h)
	return mux
}

// CacheStats returns the shared cache counters.
func (f *Framework) CacheStats() cache.Stats { return f.cache.Stats() }

// Close releases background resources: the prefetch crawler (stopped
// first, so no cycle races the teardown), the cache's expiry sweeper,
// and — when a durable store is configured — the write-through pool
// (drained first, so queued persists land) and the store itself. Safe
// to call more than once.
func (f *Framework) Close() {
	if f.cluster != nil {
		f.cluster.Close()
	}
	if f.crawler != nil {
		f.crawler.Close()
	}
	f.tier.stop()
	f.cache.Close()
	if f.store != nil {
		_ = f.store.Close()
	}
}

// Prefetcher exposes the speculative pre-adaptation crawler; nil unless
// Prefetch is enabled.
func (f *Framework) Prefetcher() *prefetch.Crawler { return f.crawler }

// Cluster exposes the consistent-hash membership node; nil unless
// ClusterListen is set.
func (f *Framework) Cluster() *cluster.Node { return f.cluster }

// Store exposes the durable render store; nil without StoreDir.
func (m *MultiFramework) Store() *store.Store { return m.store }

// SLO exposes the SLO engine; nil unless an SLO knob is set.
func (m *MultiFramework) SLO() *obs.SLOEngine {
	if m.tier == nil {
		return nil
	}
	return m.tier.slo
}

// Recorder exposes the flight recorder; nil without IncidentDir.
func (m *MultiFramework) Recorder() *obs.Recorder {
	if m.tier == nil {
		return nil
	}
	return m.tier.recorder
}

// Close releases background resources (the prefetch crawler, the shared
// cache's expiry sweeper, the store write-through pool, and the store).
// Safe to call more than once.
func (m *MultiFramework) Close() {
	if m.cluster != nil {
		m.cluster.Close()
	}
	if m.crawler != nil {
		m.crawler.Close()
	}
	m.tier.stop()
	m.cache.Close()
	if m.store != nil {
		_ = m.store.Close()
	}
}

// Prefetcher exposes the speculative pre-adaptation crawler; nil unless
// Prefetch is enabled.
func (m *MultiFramework) Prefetcher() *prefetch.Crawler { return m.crawler }

// Cluster exposes the consistent-hash membership node; nil unless
// ClusterListen is set.
func (m *MultiFramework) Cluster() *cluster.Node { return m.cluster }

// GenerateCode emits the standalone Go proxy source for this framework's
// spec — the m.Site "shell code" artifact.
func (f *Framework) GenerateCode(opts gen.Options) ([]byte, error) {
	return gen.GenerateProxyMain(f.sp, opts)
}

// ListenAndServe serves the proxy (with /metrics and /debug/traces
// mounted) until the listener fails.
func (f *Framework) ListenAndServe(addr string) error {
	srv := &http.Server{
		Addr:              addr,
		Handler:           f.HandlerWithMetrics(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	if err := srv.ListenAndServe(); err != nil {
		return fmt.Errorf("core: serving: %w", err)
	}
	return nil
}

// Serve serves the proxy (with /metrics and /debug/traces mounted) on
// an existing listener (tests and examples bind :0 and need the
// resolved address).
func (f *Framework) Serve(l net.Listener) error {
	srv := &http.Server{
		Handler:           f.HandlerWithMetrics(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	if err := srv.Serve(l); err != nil {
		return fmt.Errorf("core: serving: %w", err)
	}
	return nil
}
