package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"msite/internal/admission"
	"msite/internal/cache"
	"msite/internal/fetch"
	"msite/internal/obs"
)

// fakeBuilder is a Builder serving canned bytes, counting pipeline runs.
type fakeBuilder struct {
	data    []byte
	snap    *cache.Entry
	err     error
	builds  atomic.Int64
	traceID atomic.Value // string: the trace ID seen by ClusterBuild
}

func (f *fakeBuilder) ClusterBuild(ctx context.Context) ([]byte, bool, error) {
	f.traceID.Store(obs.TraceFrom(ctx).ID())
	if f.err != nil {
		return nil, false, f.err
	}
	return f.data, f.builds.Add(1) == 1, nil
}

func (f *fakeBuilder) ClusterSnapshot() (cache.Entry, bool) {
	if f.snap == nil {
		return cache.Entry{}, false
	}
	return *f.snap, true
}

// ownerServer runs a Node's transport on an httptest server and returns
// both. The serving node's Self is a placeholder — transport serving
// does not consult ring identity.
func ownerServer(t *testing.T, cfg Config, sites map[string]Builder) (*Node, *httptest.Server) {
	t.Helper()
	if cfg.Self == "" {
		cfg.Self = "http://owner.invalid"
	}
	n, err := NewNode(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n.SetSites(sites)
	srv := httptest.NewServer(n.Handler())
	t.Cleanup(srv.Close)
	return n, srv
}

// keyOwnedBy searches the fabricated keyspace for a key the ring
// assigns to want, so tests can force the remote-forward path.
func keyOwnedBy(t *testing.T, n *Node, want string) string {
	t.Helper()
	for i := 0; i < 10000; i++ {
		key := fmt.Sprintf("bundle:forced:%016x:w390:high", uint64(i))
		if o, ok := n.Owner(key); ok && o == want {
			return key
		}
	}
	t.Fatalf("no key owned by %s in 10000 tries", want)
	return ""
}

func TestFetchBundleFromOwner(t *testing.T) {
	ownerObs := obs.NewRegistry()
	fb := &fakeBuilder{
		data: []byte("wire-v2-bundle"),
		snap: &cache.Entry{Data: []byte("png-bytes"), MIME: "image/png;390,800"},
	}
	_, srv := ownerServer(t, Config{Token: "s3cret", Obs: ownerObs}, map[string]Builder{"forum": fb})

	reqObs := obs.NewRegistry()
	req, err := NewNode(Config{
		Self:  "http://requester.invalid",
		Peers: []string{srv.URL},
		Token: "s3cret",
		Obs:   reqObs,
	})
	if err != nil {
		t.Fatal(err)
	}
	key := keyOwnedBy(t, req, srv.URL)

	ctx, tr := reqObs.StartTrace(context.Background(), "entry")
	bundle, snap, remote, err := req.FetchBundle(ctx, "forum", key)
	tr.End()
	if err != nil || !remote {
		t.Fatalf("FetchBundle: remote=%v err=%v", remote, err)
	}
	if string(bundle) != "wire-v2-bundle" {
		t.Fatalf("bundle = %q", bundle)
	}
	if snap == nil || string(snap.Data) != "png-bytes" || snap.MIME != "image/png;390,800" {
		t.Fatalf("snapshot = %+v", snap)
	}
	if got := fb.builds.Load(); got != 1 {
		t.Fatalf("owner builds = %d, want 1", got)
	}

	// Trace propagation (the X-MSite-Trace hop): the owner's build must
	// run under the originating trace ID, and both registries must hold
	// a record with that ID so /debug/traces stitches.
	if got := fb.traceID.Load(); got != tr.ID() {
		t.Fatalf("owner saw trace %v, requester sent %s", got, tr.ID())
	}
	found := false
	for _, rec := range ownerObs.RecentTraces() {
		if rec.ID == tr.ID() && rec.Name == "cluster_bundle" {
			found = true
		}
	}
	if !found {
		t.Fatalf("owner registry missing trace %s", tr.ID())
	}
}

func TestFetchBundleSelfOwnedStaysLocal(t *testing.T) {
	n, err := NewNode(Config{Self: "http://self.invalid"})
	if err != nil {
		t.Fatal(err)
	}
	key := keyOwnedBy(t, n, "http://self.invalid")
	if _, _, remote, err := n.FetchBundle(context.Background(), "forum", key); remote || err != nil {
		t.Fatalf("self-owned key forwarded: remote=%v err=%v", remote, err)
	}
}

func TestTransportRejectsBadToken(t *testing.T) {
	fb := &fakeBuilder{data: []byte("x")}
	_, srv := ownerServer(t, Config{Token: "right"}, map[string]Builder{"forum": fb})

	req, err := NewNode(Config{Self: "http://requester.invalid", Peers: []string{srv.URL}, Token: "wrong"})
	if err != nil {
		t.Fatal(err)
	}
	key := keyOwnedBy(t, req, srv.URL)
	_, _, remote, err := req.FetchBundle(context.Background(), "forum", key)
	if !remote || err == nil {
		t.Fatalf("bad token accepted: remote=%v err=%v", remote, err)
	}
	var ae *fetch.AuthRequiredError
	if !errors.As(err, &ae) {
		t.Fatalf("want AuthRequiredError, got %v", err)
	}
	// An HTTP status is a live peer answering — it must NOT be marked
	// down.
	if o, ok := req.Owner(key); !ok || o != srv.URL {
		t.Fatalf("status error demoted live peer: owner=%q ok=%v", o, ok)
	}
	if fb.builds.Load() != 0 {
		t.Fatal("unauthorized request reached the builder")
	}
}

func TestTransportShedMapsTo503(t *testing.T) {
	fb := &fakeBuilder{err: &admission.ShedError{Reason: "saturated"}}
	reg := obs.NewRegistry()
	_, srv := ownerServer(t, Config{Obs: reg}, map[string]Builder{"forum": fb})
	resp, err := http.Get(srv.URL + PathPrefix + "bundle/forum")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("shed response missing Retry-After")
	}
	// The owner's shed never reaches a proxy's shedError; the transport
	// counts it, once.
	if c, ok := reg.Snapshot().Counter("msite_admission_shed_total", "reason", "saturated"); !ok || c.Value != 1 {
		t.Fatalf("msite_admission_shed_total{reason=saturated} = %+v ok=%v, want 1", c, ok)
	}
}

func TestTransportUnknownSite404(t *testing.T) {
	_, srv := ownerServer(t, Config{}, map[string]Builder{})
	for _, path := range []string{"bundle/nope", "snapshot/nope", "bundle/", "bundle/a/b"} {
		resp, err := http.Get(srv.URL + PathPrefix + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("GET %s = %d, want 404", path, resp.StatusCode)
		}
	}
}

// A transport-class failure (refused connection) must fall back local
// AND mark the owner down immediately, so the very next request routes
// around it without re-paying the timeout.
func TestFetchBundleDeadOwnerFallsBackAndDemotes(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close()

	req, err := NewNode(Config{Self: "http://requester.invalid", Peers: []string{deadURL}})
	if err != nil {
		t.Fatal(err)
	}
	key := keyOwnedBy(t, req, deadURL)
	_, _, remote, err := req.FetchBundle(context.Background(), "forum", key)
	if !remote || err == nil {
		t.Fatalf("dead owner: remote=%v err=%v", remote, err)
	}
	// Demoted: every key now routes to the only live node (self).
	if o, ok := req.Owner(key); !ok || o != "http://requester.invalid" {
		t.Fatalf("dead peer still owns %q (owner=%q)", key, o)
	}
}

// The liveness probe (satellite: ring never routes to a dead peer) —
// kill a peer, ProbeOnce, assert no key routes to it; revive, ProbeOnce,
// assert it owns keys again.
func TestProbeMarksDeadPeerAndRecovers(t *testing.T) {
	var healthy atomic.Bool
	healthy.Store(true)
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !healthy.Load() {
			http.Error(w, "down", http.StatusInternalServerError)
			return
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer peer.Close()

	n, err := NewNode(Config{Self: "http://self.invalid", Peers: []string{peer.URL}})
	if err != nil {
		t.Fatal(err)
	}
	key := keyOwnedBy(t, n, peer.URL)

	n.ProbeOnce(context.Background())
	if o, _ := n.Owner(key); o != peer.URL {
		t.Fatalf("healthy peer demoted: owner=%q", o)
	}

	healthy.Store(false)
	n.ProbeOnce(context.Background())
	// Property: after the probe marks it down, NO key may route to it.
	for i := 0; i < 2000; i++ {
		k := fmt.Sprintf("bundle:any:%016x:w390:high", uint64(i))
		if o, ok := n.Owner(k); ok && o == peer.URL {
			t.Fatalf("dead peer still routed key %q", k)
		}
	}

	healthy.Store(true)
	n.ProbeOnce(context.Background())
	if o, _ := n.Owner(key); o != peer.URL {
		t.Fatalf("revived peer not restored: owner=%q", o)
	}
}

func TestNewNodeValidation(t *testing.T) {
	if _, err := NewNode(Config{}); err == nil {
		t.Fatal("empty Self accepted")
	}
	if _, err := NewNode(Config{Self: "not-a-url"}); err == nil {
		t.Fatal("schemeless Self accepted")
	}
	if _, err := NewNode(Config{Self: "http://a:1", Peers: []string{"ftp://b:2"}}); err == nil {
		t.Fatal("ftp peer accepted")
	}
	n, err := NewNode(Config{Self: "http://a:1/", Peers: []string{"http://a:1", "http://b:2"}})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(n.Peers()); got != 2 {
		t.Fatalf("peer count = %d, want 2 (self deduped)", got)
	}
	n.Start()
	n.Close()
	n.Close() // idempotent
}
