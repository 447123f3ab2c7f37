package proxy

import (
	"context"

	"msite/internal/cache"
	"msite/internal/obs"
	"msite/internal/spec"
)

// This file is the proxy surface of cluster mode (internal/cluster):
// the requester side (fetchFromOwner, consulted on a cold
// non-personalized build before spending a local pipeline run) and the
// owner side (ClusterBuild/ClusterSnapshot, the cluster.Builder
// implementation the peer transport serves).

// ClusterHook is the requester-side routing seam the proxy consults on
// a cold build; *cluster.Node implements it. remote=false means this
// node owns the key (build locally as usual); remote=true with err set
// means the owner was tried and failed — the caller takes over locally.
type ClusterHook interface {
	FetchBundle(ctx context.Context, site, key string) (bundle []byte, snapshot *cache.Entry, remote bool, err error)
}

// BundleKeyForSpec computes the durable bundle key New would derive for
// this spec and viewport override — the ring routing key. Exported so
// core and the cluster experiments can predict a site's ring owner
// without constructing a proxy.
func BundleKeyForSpec(s *spec.Spec, override int) (string, error) {
	return bundleKey(s, viewportWidth(s, override))
}

// BundleKey returns this proxy's durable bundle key ("" when bundle
// persistence is off).
func (p *Proxy) BundleKey() string { return p.bundleKey }

// fetchFromOwner tries to satisfy a cold build from the key's ring
// owner. ok=false means the caller proceeds with a local build: this
// node owns the key, cluster mode is off, the peer's bundle didn't
// decode, or the owner is down (local takeover — availability over
// strict ownership; the hook has already marked the peer down and
// counted the fallback).
func (p *Proxy) fetchFromOwner(ctx context.Context) (*Bundle, bool) {
	if p.cfg.Cluster == nil || p.bundleKey == "" {
		return nil, false
	}
	data, snap, remote, err := p.cfg.Cluster.FetchBundle(ctx, p.cfg.Spec.Name, p.bundleKey)
	if !remote {
		return nil, false
	}
	if err != nil {
		obs.TraceFrom(ctx).Annotate("cluster", "fallback_local")
		return nil, false
	}
	b, derr := decodeBundle(data)
	if derr != nil {
		obs.TraceFrom(ctx).Annotate("cluster", "bad_peer_bundle")
		return nil, false
	}
	// Seed the local tiers with the owner's product so the next cold
	// miss here (or a restart, via the durable tier) skips the hop too.
	p.storeBundle(b, data)
	if snap != nil {
		if ttl := sharedSnapshotTTL(p.cfg.Spec); ttl > 0 {
			if _, warm := p.cfg.Cache.Get(p.snapKey); !warm {
				p.cfg.Cache.Put(p.snapKey, *snap, ttl)
			}
		}
	}
	p.metrics.bundleReuses.Inc()
	obs.TraceFrom(ctx).Annotate("cluster", "forwarded")
	return b, true
}

// ClusterBuild implements cluster.Builder: the owner-side build a peer
// transport request lands on. Like PrefetchBuild it reuses an existing
// bundle without a pipeline run, but the admission slot comes from the
// foreground lane — a forwarded live request is live load, and this
// slot (on the owner, not the requester) is the build's only one.
// Concurrent forwards and local cold builds of the same site coalesce
// into one pipeline run, which is what makes a cross-node flash crowd
// cost one build.
func (p *Proxy) ClusterBuild(ctx context.Context) ([]byte, bool, error) {
	if p.bundleKey == "" {
		return nil, false, ErrNoBundlePersistence
	}
	b, ran, err := p.coalescedBuild(ctx, buildPlan{persist: true})
	if err != nil {
		return nil, false, err
	}
	// Warm the shared snapshot too, so the requester's snapshot fetch
	// (and this node's next visitor) serves without a render.
	p.prerenderSnapshot(b)
	// Serve the stored bytes when present (saveBundle just put them, or
	// an earlier build did); re-encode only if the cache dropped them.
	if e, ok := p.cfg.Cache.Get(p.bundleKey); ok {
		return e.Data, ran, nil
	}
	data, err := encodeBundle(p.cfg.Spec.Name, b)
	if err != nil {
		return nil, false, err
	}
	return data, ran, nil
}

// ClusterSnapshot implements cluster.Builder: the shared snapshot
// entry, when this site has one warm.
func (p *Proxy) ClusterSnapshot() (cache.Entry, bool) {
	if !p.cfg.Spec.Snapshot.Shared {
		return cache.Entry{}, false
	}
	return p.cfg.Cache.Get(p.snapKey)
}
