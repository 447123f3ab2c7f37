package proxy

import (
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"sort"
	"strings"

	"msite/internal/obs"
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

// NewMulti builds the composite proxy: one Proxy per spec, each
// configured by cfg with its own Spec and a /p/<name> PathPrefix (cfg's
// own are ignored). Spec names must be unique and URL-safe. Sessions,
// Cache and Obs are thereby shared across every site: one cookie and one
// render cache cover the whole server, not each page separately, as do
// the process's build slots.
func NewMulti(specs []*spec.Spec, cfg Config) (*MultiProxy, error) {
	if len(specs) == 0 {
		return nil, errors.New("proxy: no specs")
	}
	if cfg.Obs == nil {
		cfg.Obs = obs.NewRegistry()
	}
	m := &MultiProxy{sites: make(map[string]*Proxy, len(specs)), obs: cfg.Obs}
	for _, sp := range specs {
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
		cfg.Spec, cfg.PathPrefix = sp, "/p/"+name
		p, err := New(cfg)
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
