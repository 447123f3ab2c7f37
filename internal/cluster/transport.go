package cluster

import (
	"crypto/subtle"
	"encoding/json"
	"net/http"
	"net/url"
	"strconv"
	"strings"

	"msite/internal/admission"
	"msite/internal/obs"
)

// Handler returns the peer transport: the authenticated internal
// endpoints other nodes fetch bundles and shared snapshots from, plus
// the health endpoint the probe loop hits. Mount it at PathPrefix on
// the node's serving mux (core does this when cluster mode is on).
func (n *Node) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc(PathPrefix+"health", n.handleHealth)
	mux.HandleFunc(PathPrefix+"bundle/", n.handleBundle)
	mux.HandleFunc(PathPrefix+"snapshot/", n.handleSnapshot)
	return mux
}

// authorized checks the shared bearer token (constant-time compare).
// An empty configured token admits everything — trusted-network mode.
func (n *Node) authorized(r *http.Request) bool {
	if n.cfg.Token == "" {
		return true
	}
	got := strings.TrimPrefix(r.Header.Get("Authorization"), "Bearer ")
	return subtle.ConstantTimeCompare([]byte(got), []byte(n.cfg.Token)) == 1
}

// healthBody is the health endpoint's JSON answer.
type healthBody struct {
	ID    string   `json:"id"`
	Sites []string `json:"sites"`
	Ring  int      `json:"ring_nodes"`
}

func (n *Node) handleHealth(w http.ResponseWriter, r *http.Request) {
	if !n.authorized(r) {
		http.Error(w, "cluster: bad token", http.StatusUnauthorized)
		return
	}
	n.mu.Lock()
	body := healthBody{ID: n.self, Ring: n.ring.Size()}
	for name := range n.sites {
		body.Sites = append(body.Sites, name)
	}
	n.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(body)
}

// siteFromPath extracts the site name from /internal/cluster/<kind>/<site>.
func siteFromPath(path, kind string) (string, bool) {
	rest := strings.TrimPrefix(path, PathPrefix+kind+"/")
	if rest == "" || rest == path || strings.Contains(rest, "/") {
		return "", false
	}
	name, err := url.PathUnescape(rest)
	if err != nil {
		return "", false
	}
	return name, true
}

// handleBundle serves a site's encoded bundle to a peer, building it
// (through this node's admission controller — the proxied build's one
// slot lives here, on the owner) when cold. The originating trace ID,
// when forwarded, becomes this node's trace ID for the build, so both
// nodes' /debug/traces stitch.
func (n *Node) handleBundle(w http.ResponseWriter, r *http.Request) {
	if !n.authorized(r) {
		http.Error(w, "cluster: bad token", http.StatusUnauthorized)
		return
	}
	site, ok := siteFromPath(r.URL.Path, "bundle")
	if !ok {
		http.NotFound(w, r)
		return
	}
	b, ok := n.site(site)
	if !ok {
		http.Error(w, "cluster: unknown site "+site, http.StatusNotFound)
		return
	}
	ctx := r.Context()
	var tr *obs.Trace
	if n.cfg.Obs != nil {
		ctx, tr = n.cfg.Obs.StartTraceWithID(ctx, "cluster_bundle", r.Header.Get(traceHeader))
		defer tr.End()
		tr.Annotate("site", site)
		tr.Annotate("cluster", "owner_build")
		w.Header().Set(traceHeader, tr.ID())
	}
	data, built, err := b.ClusterBuild(ctx)
	if err != nil {
		tr.Annotate("error", err.Error())
		if shed, isShed := admission.IsShed(err); isShed {
			// A peer's build never reaches the proxy's shedError, so its
			// shed is counted here.
			n.count("msite_admission_shed_total", "reason", shed.Reason)
			w.Header().Set("Retry-After", strconv.Itoa(admission.RetryAfterSeconds(shed.RetryAfter)))
			http.Error(w, "cluster: owner shedding", http.StatusServiceUnavailable)
			return
		}
		http.Error(w, "cluster: build failed", http.StatusBadGateway)
		return
	}
	if built {
		n.count("msite_cluster_owner_builds_total", "site", site)
	}
	w.Header().Set("Content-Type", bundleMIME)
	_, _ = w.Write(data)
}

// handleSnapshot serves a site's shared snapshot cache entry (MIME +
// bytes as JSON); 404 when the site has none warm. Requesters seed
// their local snapshot cache with it so the forwarded build also
// skips the layout/raster/encode cost.
func (n *Node) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	if !n.authorized(r) {
		http.Error(w, "cluster: bad token", http.StatusUnauthorized)
		return
	}
	site, ok := siteFromPath(r.URL.Path, "snapshot")
	if !ok {
		http.NotFound(w, r)
		return
	}
	b, ok := n.site(site)
	if !ok {
		http.Error(w, "cluster: unknown site "+site, http.StatusNotFound)
		return
	}
	e, ok := b.ClusterSnapshot()
	if !ok {
		http.Error(w, "cluster: no shared snapshot", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(snapshotWire{MIME: e.MIME, Data: e.Data})
}
