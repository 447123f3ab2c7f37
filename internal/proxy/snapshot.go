package proxy

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"time"

	"msite/internal/cache"
	"msite/internal/imaging"
	"msite/internal/obs"
	"msite/internal/spec"
)

// This file is the entry snapshot as the proxy serves it: the spec's
// snapshot settings, and the shared cache around renderSnapshot, whose
// renders and hits the proxy counts.

// snapshotFidelity is the spec's snapshot encoding, defaulting to low.
func snapshotFidelity(s *spec.Spec) imaging.Fidelity {
	switch s.Snapshot.Fidelity {
	case "high":
		return imaging.FidelityHigh
	case "medium":
		return imaging.FidelityMedium
	case "thumb":
		return imaging.FidelityThumb
	default:
		return imaging.FidelityLow
	}
}

// snapshotScale is the spec's snapshot scale factor, defaulting to 1.
func snapshotScale(s *spec.Spec) float64 {
	if s.Snapshot.Scale > 0 {
		return s.Snapshot.Scale
	}
	return 1
}

// sharedSnapshotTTL is how long the cross-session snapshot cache entry
// lives; zero when the spec's snapshot is per-session or uncacheable.
func sharedSnapshotTTL(s *spec.Spec) time.Duration {
	if !s.Snapshot.Shared {
		return 0
	}
	return time.Duration(s.Snapshot.CacheTTLSeconds) * time.Second
}

// snapshot renders (or fetches from the shared cache) the scaled entry
// snapshot of the view's Bundle, records it as what the session was
// shown, and returns its geometry. Whether the snapshot came from the
// shared cache is annotated on the request trace. A private view's
// Bundle may show what only its user may see, so it takes the route of a
// spec without a shared snapshot: rendered from its own Bundle once, kept
// on the view, never read from or written to the cross-session entry.
func (p *Proxy) snapshot(ctx context.Context, v *sessionView) (w, h int, err error) {
	ttl := sharedSnapshotTTL(p.cfg.Spec)
	if v.private {
		ttl = 0
	}
	var entry cache.Entry
	if ttl > 0 {
		// Served from the shared cache, directly or by another goroutine's
		// single-flight fill — the amortization §3.3 is about. Only a
		// lookup that misses makes the fill.
		hit := false
		if entry, hit = p.cfg.Cache.Lookup(p.snapKey); !hit {
			filled := false
			entry, err = p.cfg.Cache.GetOrFill(p.snapKey, ttl, func() (cache.Entry, error) {
				filled = true
				return p.renderSnapshotEntry(ctx, v)
			})
			hit = err == nil && !filled
		}
		outcome := "miss"
		if hit {
			outcome = "hit"
			p.metrics.snapshotHits.Inc()
		}
		obs.TraceFrom(ctx).Annotate("cache", outcome)
	} else {
		entry, err = p.ownSnapshot(ctx, v)
		obs.TraceFrom(ctx).Annotate("cache", "bypass")
	}
	if err != nil {
		return 0, 0, err
	}
	if cur := v.snapshot.Load(); cur == nil || !sameBytes(cur.data, entry.Data) {
		// Bytes the view already holds keep the artifact (and ETag)
		// derived from them.
		v.snapshot.Store(newArtifact(p.snapName, entry.Data, p.snapCacheControl))
	}
	w, h = parseGeometry(entry.MIME)
	return w, h, nil
}

// renderSnapshotEntry renders v's Bundle's snapshot, counting the render.
func (p *Proxy) renderSnapshotEntry(ctx context.Context, v *sessionView) (cache.Entry, error) {
	p.metrics.snapshotRenders.Inc()
	return snapshotEntry(ctx, v.bundle, p.width, p.cfg.Spec)
}

// ownSnapshot returns v's own snapshot, rendered on the first call that
// finds none; a failed render is tried again by the next. Concurrent
// callers wait for one render.
func (p *Proxy) ownSnapshot(ctx context.Context, v *sessionView) (cache.Entry, error) {
	v.ownMu.Lock()
	defer v.ownMu.Unlock()
	if v.own == nil {
		entry, err := p.renderSnapshotEntry(ctx, v)
		if err != nil {
			return cache.Entry{}, err
		}
		v.own = &entry
	}
	return *v.own, nil
}

// snapshotEntry renders b's entry snapshot at width as s configures it,
// in the form the shared cache and the durable tier carry:
// the geometry rides in the MIME suffix.
func snapshotEntry(ctx context.Context, b *Bundle, width int, s *spec.Spec) (cache.Entry, error) {
	a, err := renderSnapshot(ctx, b, width, snapshotFidelity(s), snapshotScale(s))
	if err != nil {
		return cache.Entry{}, err
	}
	return cache.Entry{Data: a.Data, MIME: fmt.Sprintf("%s;%d,%d", a.MIME, a.Width, a.Height)}, nil
}

// parseGeometry reads back the geometry snapshotEntry put in a MIME
// suffix; 0, 0 when there is none.
func parseGeometry(mime string) (w, h int) {
	i := strings.LastIndexByte(mime, ';')
	if i < 0 {
		return 0, 0
	}
	ws, hs, ok := strings.Cut(mime[i+1:], ",")
	if !ok {
		return 0, 0
	}
	w, _ = strconv.Atoi(ws)
	h, _ = strconv.Atoi(hs)
	return w, h
}
