package proxy

import (
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"time"

	"msite/internal/admission"
	"msite/internal/cache"
	"msite/internal/fetch"
	"msite/internal/obs"
	"msite/internal/session"
	"msite/internal/spec"
)

// MultiProxy hosts the adaptation proxies for several pages of a site
// under one server: each spec mounts at /p/<name>/, sharing one session
// manager (one cookie covers the whole site) and one public render
// cache. The paper generates one proxy file per adapted page; this is
// the deployment convenience of serving them together.
type MultiProxy struct {
	sites map[string]*Proxy
	names []string
	obs   *obs.Registry
}

// MultiConfig wires a MultiProxy.
type MultiConfig struct {
	// Specs are the adaptation specs, one per page; names must be unique
	// and URL-safe.
	Specs []*spec.Spec
	// Sessions and Cache are shared across every site (required); Cache
	// may be a *cache.Cache or a durable *cache.Tiered.
	Sessions *session.Manager
	Cache    cache.Layer
	// ViewportWidth and FetchOptions apply to every site.
	ViewportWidth int
	FetchOptions  []fetch.Option
	// Obs is the metric registry shared by every site (the site label
	// distinguishes them). Nil creates one.
	Obs *obs.Registry
	// Logger enables per-request structured logging on every site.
	Logger *slog.Logger
	// FetchWorkers and RasterWorkers are the adaptation parallelism
	// knobs, applied to every site (see Config).
	FetchWorkers  int
	RasterWorkers int
	// ServeStale and StaleFor are the staleness knobs, applied to every
	// site (see Config).
	ServeStale bool
	StaleFor   time.Duration
	// Stream, ATFHeight, SnapshotProgressive, and MinimalMarkup are the
	// streaming-path knobs, applied to every site (see Config).
	Stream              bool
	ATFHeight           int
	SnapshotProgressive bool
	MinimalMarkup       bool
	// Admission is the overload-protection controller, shared by every
	// site: one concurrency budget and one per-client rate limit cover
	// the whole server, not each page separately. Nil admits everything.
	Admission *admission.Controller
	// PersistBundles and BundleTTL are the durable-store knobs, applied
	// to every site (see Config).
	PersistBundles bool
	BundleTTL      time.Duration
	// Demand is the live-traffic feed for the prefetch crawler's demand
	// ranking, applied to every site (see Config).
	Demand func(site string)
	// RepairRules, ParityCheck, and ParityMinScore are the adaptation
	// quality knobs, applied to every site (see Config).
	RepairRules    string
	ParityCheck    bool
	ParityMinScore float64
	// Cluster is the consistent-hash routing hook, shared by every site
	// (see Config.Cluster).
	Cluster ClusterHook
}

// NewMulti builds the composite proxy.
func NewMulti(cfg MultiConfig) (*MultiProxy, error) {
	if len(cfg.Specs) == 0 {
		return nil, errors.New("proxy: no specs")
	}
	reg := cfg.Obs
	if reg == nil {
		reg = obs.NewRegistry()
	}
	m := &MultiProxy{sites: make(map[string]*Proxy, len(cfg.Specs)), obs: reg}
	for _, sp := range cfg.Specs {
		if sp == nil {
			return nil, errors.New("proxy: nil spec")
		}
		name := sp.Name
		if name == "" || url.PathEscape(name) != name {
			return nil, fmt.Errorf("proxy: spec name %q is not URL-safe", name)
		}
		if _, dup := m.sites[name]; dup {
			return nil, fmt.Errorf("proxy: duplicate spec name %q", name)
		}
		p, err := New(Config{
			Spec:                sp,
			Sessions:            cfg.Sessions,
			Cache:               cfg.Cache,
			ViewportWidth:       cfg.ViewportWidth,
			FetchOptions:        cfg.FetchOptions,
			PathPrefix:          "/p/" + name,
			Obs:                 reg,
			Logger:              cfg.Logger,
			FetchWorkers:        cfg.FetchWorkers,
			RasterWorkers:       cfg.RasterWorkers,
			ServeStale:          cfg.ServeStale,
			StaleFor:            cfg.StaleFor,
			Admission:           cfg.Admission,
			PersistBundles:      cfg.PersistBundles,
			BundleTTL:           cfg.BundleTTL,
			Stream:              cfg.Stream,
			ATFHeight:           cfg.ATFHeight,
			SnapshotProgressive: cfg.SnapshotProgressive,
			MinimalMarkup:       cfg.MinimalMarkup,
			Demand:              cfg.Demand,
			RepairRules:         cfg.RepairRules,
			ParityCheck:         cfg.ParityCheck,
			ParityMinScore:      cfg.ParityMinScore,
			Cluster:             cfg.Cluster,
		})
		if err != nil {
			return nil, fmt.Errorf("proxy: site %q: %w", name, err)
		}
		m.sites[name] = p
		m.names = append(m.names, name)
	}
	sort.Strings(m.names)
	return m, nil
}

// Obs exposes the registry shared by every mounted site.
func (m *MultiProxy) Obs() *obs.Registry { return m.obs }

// Site returns the proxy mounted for name.
func (m *MultiProxy) Site(name string) (*Proxy, bool) {
	p, ok := m.sites[name]
	return p, ok
}

// Names lists the mounted sites, sorted.
func (m *MultiProxy) Names() []string {
	out := make([]string, len(m.names))
	copy(out, m.names)
	return out
}

// ServeHTTP implements http.Handler: /p/<name>/... routes to that
// site's proxy; / serves the site directory.
func (m *MultiProxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/" {
		m.serveIndex(w)
		return
	}
	rest, ok := strings.CutPrefix(r.URL.Path, "/p/")
	if !ok {
		http.NotFound(w, r)
		return
	}
	name, _, _ := strings.Cut(rest, "/")
	site, ok := m.sites[name]
	if !ok {
		http.NotFound(w, r)
		return
	}
	site.ServeHTTP(w, r)
}

func (m *MultiProxy) serveIndex(w http.ResponseWriter) {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	fmt.Fprint(w, `<!DOCTYPE html><html><head><title>m.Site</title>
<meta name="viewport" content="width=device-width, initial-scale=1"></head>
<body><h3>Adapted pages</h3><ul>`)
	for _, name := range m.names {
		origin := m.sites[name].cfg.Spec.Origin
		fmt.Fprintf(w, `<li><a href="/p/%s/">%s</a> <span>(%s)</span></li>`,
			name, name, origin)
	}
	fmt.Fprint(w, `</ul></body></html>`)
}
