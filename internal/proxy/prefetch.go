package proxy

import (
	"context"
	"errors"
	"time"

	"msite/internal/fetch"
)

// This file is the proxy surface the prefetch crawler
// (internal/prefetch) drives: building a site's shared bundle ahead of
// demand, reading the persisted validator, and bumping the bundle's TTL
// when a conditional GET came back 304.

// ErrNoBundlePersistence reports a prefetch call against a proxy whose
// bundle persistence is off — there is nowhere to put the pre-built
// product.
var ErrNoBundlePersistence = errors.New("proxy: prefetch requires bundle persistence")

// PrefetchBuild builds (or verifies) this site's shared bundle off the
// live request path. With force false an existing bundle satisfies the
// call without a pipeline run; with force true the pipeline always runs
// and overwrites the bundle — the refresh path after the origin changed.
// The admission slot comes from the background lane, so a call under
// live load returns admission.ErrBackgroundBusy instead of queueing.
// Returns whether a pipeline build actually ran.
func (p *Proxy) PrefetchBuild(ctx context.Context, force bool) (bool, error) {
	if p.bundleKey == "" {
		return false, ErrNoBundlePersistence
	}
	b, ran, err := p.coalescedBuild(ctx, buildPlan{persist: true, force: force, background: true})
	if err == nil && b != nil {
		p.prerenderSnapshot(b)
	}
	return ran, err
}

// BundleValidator returns the persisted bundle's origin validator. Zero
// when no bundle has been built or loaded this process lifetime, or when
// the bundle predates validator capture (wire version 1).
func (p *Proxy) BundleValidator() BundleValidator {
	p.sharedMu.Lock()
	defer p.sharedMu.Unlock()
	return p.bundleVal
}

// TouchBundle restarts the persisted bundle's TTL — the 304 path: the
// origin proved the content unchanged, so the bundle earns a full new
// lifetime without being rewritten. Returns whether a live bundle was
// touched.
func (p *Proxy) TouchBundle() bool {
	if p.bundleKey == "" {
		return false
	}
	ok := p.cfg.Cache.Touch(p.bundleKey, DefaultBundleTTL)
	if ok {
		p.sharedMu.Lock()
		p.bundleVal.FetchedAt = time.Now()
		p.sharedMu.Unlock()
	}
	return ok
}

// Origin returns the entry-page URL this proxy adapts — the prefetch
// crawler's crawl root for the site.
func (p *Proxy) Origin() string { return p.cfg.Spec.Origin }

// SiteName returns the spec name identifying this proxy's site.
func (p *Proxy) SiteName() string { return p.cfg.Spec.Name }

// PrefetchFetcher returns an anonymous fetcher configured like the
// build pipeline's (same timeout, retry, and breaker wiring) for the
// crawler's link-graph walks and conditional revalidation probes.
func (p *Proxy) PrefetchFetcher() *fetch.Fetcher {
	return fetch.New(nil, p.cfg.FetchOptions...)
}
