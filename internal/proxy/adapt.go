package proxy

import (
	"context"
	"errors"

	"msite/internal/fetch"
	"msite/internal/obs"
	"msite/internal/quality"
	"msite/internal/session"
)

// This file is how a session comes to hold a Bundle: its own view, the
// durable bundle, or one run of build, whose report becomes this proxy's
// metrics here.

// ensureAdaptation gives a session its view of a Bundle, running the
// full pipeline (fetch, filter phase, Tidy parse, attribute phase, file
// generation) at most once, or again with ?refresh=1.
func (p *Proxy) ensureAdaptation(ctx context.Context, sess *session.Session, force bool) (*sessionView, error) {
	// Single-flight per session: concurrent first requests (a mobile
	// browser fetching the entry page and a subpage in parallel) must
	// not run the fetch+adapt pipeline twice.
	for {
		p.mu.Lock()
		if v, ok := p.adapted[sess.ID]; ok && !force {
			p.mu.Unlock()
			return v, nil
		}
		if wait, busy := p.inflight[sess.ID]; busy {
			p.mu.Unlock()
			select {
			case <-wait:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			force = false // the racing adaptation satisfies a refresh too
			continue
		}
		done := make(chan struct{})
		p.inflight[sess.ID] = done
		p.mu.Unlock()

		// Read once: the build and the view must agree on whose it is.
		private := sess.Personalized()
		b, err := p.runAdaptation(ctx, sess, private, force)

		p.mu.Lock()
		delete(p.inflight, sess.ID)
		prev := p.adapted[sess.ID]
		p.mu.Unlock()
		var v *sessionView
		if err == nil {
			v = &sessionView{bundle: b, private: private}
			p.attach(sess.ID, v)
		}
		close(done)
		if err != nil && prev != nil && !isAuthError(err) {
			// A session re-adapts only on ?refresh=1, so a failed
			// refresh keeps the view the session already has rather
			// than fail the request (§3.2's "any error handling should
			// the page be unavailable", resolved in favor of
			// availability).
			p.metrics.staleServed.Inc()
			obs.TraceFrom(ctx).Annotate("degraded", "stale_adaptation")
			return prev, nil
		}
		return v, err
	}
}

// isAuthError reports whether err is an origin auth challenge, which
// must surface to the client (as a redirect to the auth page) rather
// than degrade to stale content.
func isAuthError(err error) bool {
	var authErr *fetch.AuthRequiredError
	return errors.As(err, &authErr)
}

// runAdaptation gets a session its Bundle. Anonymous sessions coalesce:
// a flash crowd of N cold clients on the same page shares one build (one
// origin fetch, one filter+attr pass, one build slot) and then
// references the one Bundle from every session. Personalized sessions
// (stored HTTP auth, marshaled logins) never coalesce — their origin
// content may differ per user — so each gets a Bundle built for it
// alone, which is neither loaded from nor saved to the durable bundle.
func (p *Proxy) runAdaptation(ctx context.Context, sess *session.Session, private, force bool) (*Bundle, error) {
	plan := buildPlan{sess: sess, persist: p.bundleKey != "" && !private, force: force}
	if private {
		return p.loadOrBuild(ctx, plan)
	}
	return p.coalescedBuild(ctx, plan)
}

// buildPlan is what distinguishes one caller's "load, else build, save"
// from another's.
type buildPlan struct {
	// sess is the session the origin is fetched as; nil fetches
	// anonymously.
	sess *session.Session
	// persist loads the durable bundle when there is one and saves the
	// build; force skips the load, so the build overwrites it (the
	// ?refresh=1 path).
	persist, force bool
}

// loadOrBuild satisfies a plan from the durable bundle (with a tiered
// cache this is where a restarted proxy skips the whole pipeline), else
// runs one pipeline build.
func (p *Proxy) loadOrBuild(ctx context.Context, plan buildPlan) (*Bundle, error) {
	if plan.persist && !plan.force {
		if b, ok := p.loadBundle(ctx); ok {
			return b, nil
		}
	}
	b, rep, err := build(ctx, fetch.New(plan.sess, p.cfg.FetchOptions...), p.cfg.Spec, &p.build)
	// What the build observed becomes this proxy's metrics here and only
	// here, a refused build's included.
	site := p.cfg.Spec.Name
	for _, stage := range rep.degraded {
		p.degrade(stage)
	}
	for rule, n := range rep.repairs {
		p.obs.Counter("msite_quality_repairs_total", "rule", rule, "site", site).Add(uint64(n))
	}
	if par := rep.parity; par != nil {
		p.lastParity.Store(par)
		p.obs.Gauge("msite_quality_parity_score", "site", site).Set(par.Score)
		if err != nil {
			// Past the parity check the only error is its gate.
			p.obs.Counter("msite_quality_parity_failures_total", "site", site).Inc()
		}
	}
	if err != nil {
		return nil, err
	}
	p.metrics.adaptations.Inc()
	if plan.persist {
		p.saveBundle(b)
	}
	return b, nil
}

// coalescedBuild runs loadOrBuild under the site's coalesce key: a cold
// adaptation that arrives while another runs joins it instead of
// fetching the origin twice, and counts as coalesced.
func (p *Proxy) coalescedBuild(ctx context.Context, plan buildPlan) (*Bundle, error) {
	b, coalesced, err := p.coalesce.do(ctx, "adapt:"+p.cfg.Spec.Name, func(bctx context.Context) (*Bundle, error) {
		return p.loadOrBuild(bctx, plan)
	})
	if err == nil && coalesced {
		p.metrics.coalesced.Inc()
		obs.TraceFrom(ctx).Annotate("coalesced", "adaptation")
	}
	return b, err
}

// ParityReport returns the most recent content-parity report, or nil
// when ParityCheck is off or no build has completed yet.
func (p *Proxy) ParityReport() *quality.Parity { return p.lastParity.Load() }

// degrade counts one non-fatal stage failure: the stage's output was
// dropped and the request went on with what it had.
func (p *Proxy) degrade(stage string) {
	p.obs.Counter("msite_proxy_degraded_total", "stage", stage, "site", p.cfg.Spec.Name).Inc()
}
