package core

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/cookiejar"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"msite/internal/origin"
	"msite/internal/proxy"
)

// clusterRig is a two-node fleet of real frameworks sharing one origin:
// each node serves its public handler (cluster transport included) on a
// pre-bound loopback listener so peer URLs are known before New runs.
type clusterRig struct {
	fws  [2]*Framework
	urls [2]string
	srvs [2]*http.Server
}

func newClusterRig(t *testing.T, token string) *clusterRig {
	t.Helper()
	forum := origin.NewForum(origin.DefaultForumConfig())
	originSrv := httptest.NewServer(forum.Handler())
	t.Cleanup(originSrv.Close)

	rig := &clusterRig{}
	var lns [2]net.Listener
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		rig.urls[i] = "http://" + ln.Addr().String()
	}
	peers := []string{rig.urls[0], rig.urls[1]}
	for i := range rig.fws {
		fw, err := New(testSpec(originSrv.URL), Config{
			SessionRoot:          t.TempDir(),
			FetchTimeout:         10 * time.Second,
			ClusterListen:        rig.urls[i],
			ClusterPeers:         peers,
			ClusterToken:         token,
			ClusterProbeInterval: time.Hour, // probes driven by the test, not the clock
		})
		if err != nil {
			t.Fatal(err)
		}
		rig.fws[i] = fw
		srv := &http.Server{Handler: fw.HandlerWithMetrics()}
		rig.srvs[i] = srv
		go func(l net.Listener) { _ = srv.Serve(l) }(lns[i])
	}
	t.Cleanup(func() {
		for i := range rig.fws {
			_ = rig.srvs[i].Close()
			rig.fws[i].Close()
		}
	})
	return rig
}

// nonOwner returns the index of the node the ring does NOT route the
// forum bundle to, plus the owner's index.
func (rig *clusterRig) nonOwner(t *testing.T) (requester, owner int) {
	t.Helper()
	key := rig.fws[0].sites[0].BundleKey()
	if key == "" {
		t.Fatal("cluster frameworks must persist bundles")
	}
	ownerURL, ok := rig.fws[0].Cluster().Owner(key)
	if !ok {
		t.Fatal("ring empty")
	}
	for i, u := range rig.urls {
		if u == ownerURL {
			return 1 - i, i
		}
	}
	t.Fatalf("owner %q is not a rig node", ownerURL)
	return 0, 0
}

func scrape(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return string(b)
}

// Two real nodes: a cold request on the non-owner must cost exactly one
// pipeline run fleet-wide — on the owner — and the hop must stitch one
// trace ID through both nodes' /debug/traces registries.
func TestClusterTwoNodeForwarding(t *testing.T) {
	rig := newClusterRig(t, "s3cret")
	requester, owner := rig.nonOwner(t)

	jar, _ := cookiejar.New(nil)
	client := &http.Client{Jar: jar, Timeout: 30 * time.Second}
	resp, err := client.Get(rig.urls[requester] + "/")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if resp.StatusCode != 200 || !strings.Contains(string(body), "usemap") {
		t.Fatalf("entry via non-owner: %d", resp.StatusCode)
	}

	if got := rig.fws[requester].ProxyStats().Adaptations; got != 0 {
		t.Fatalf("requester ran %d pipelines, want 0", got)
	}
	if got := rig.fws[owner].ProxyStats().Adaptations; got != 1 {
		t.Fatalf("owner ran %d pipelines, want 1", got)
	}

	metrics := scrape(t, rig.urls[requester]+"/metrics")
	if !strings.Contains(metrics, "msite_cluster_forwarded_total") {
		t.Fatalf("requester metrics lack forwarded counter:\n%s", metrics)
	}
	if !strings.Contains(metrics, fmt.Sprintf("msite_cluster_ring_nodes %d", 2)) {
		t.Fatal("ring_nodes gauge != 2")
	}

	// Trace stitching: the ID the requester returned to the client must
	// appear on the owner as the cluster_bundle trace it spawned.
	traceID := resp.Header.Get(proxy.TraceHeader)
	if traceID == "" {
		t.Fatal("response carried no trace header")
	}
	found := false
	for _, rec := range rig.fws[owner].Obs().RecentTraces() {
		if rec.Name == "cluster_bundle" && rec.ID == traceID {
			found = true
		}
	}
	if !found {
		t.Fatalf("owner traces lack cluster_bundle with id %s", traceID)
	}
	reqFound := false
	for _, rec := range rig.fws[requester].Obs().RecentTraces() {
		if rec.ID == traceID {
			reqFound = true
		}
	}
	if !reqFound {
		t.Fatal("requester traces lack the stitched id")
	}

	// Warm follow-up on the requester is served from its seeded cache:
	// still exactly one build fleet-wide.
	jar2, _ := cookiejar.New(nil)
	client2 := &http.Client{Jar: jar2, Timeout: 30 * time.Second}
	resp2, err := client2.Get(rig.urls[requester] + "/")
	if err != nil {
		t.Fatal(err)
	}
	_ = resp2.Body.Close()
	total := rig.fws[0].ProxyStats().Adaptations + rig.fws[1].ProxyStats().Adaptations
	if total != 1 {
		t.Fatalf("fleet ran %d pipelines after warm request, want 1", total)
	}
}

// A token mismatch between nodes must not take the fleet down: the
// rejected hop falls back to a local build and still serves 200.
func TestClusterTokenMismatchFallsBackLocal(t *testing.T) {
	rig := newClusterRig(t, "s3cret")
	requester, owner := rig.nonOwner(t)

	// Sabotage the hop: the requester presents no token by pointing its
	// probe-authenticated transport at a peer expecting one. Simulate a
	// split config by restarting the owner's server with a handler that
	// rejects everything under the cluster prefix.
	rig.srvs[owner].Handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "unauthorized", http.StatusUnauthorized)
	})

	jar, _ := cookiejar.New(nil)
	client := &http.Client{Jar: jar, Timeout: 30 * time.Second}
	resp, err := client.Get(rig.urls[requester] + "/")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if resp.StatusCode != 200 || !strings.Contains(string(body), "usemap") {
		t.Fatalf("entry with rejected hop: %d", resp.StatusCode)
	}
	if got := rig.fws[requester].ProxyStats().Adaptations; got != 1 {
		t.Fatalf("local takeover ran %d pipelines, want 1", got)
	}
	if m := scrape(t, rig.urls[requester]+"/metrics"); !strings.Contains(m, "msite_cluster_fallback_local_total") {
		t.Fatal("fallback counter missing after rejected hop")
	}
}
