package proxy

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sync"
	"sync/atomic"
	"time"

	"msite/internal/attr"
	"msite/internal/cache"
	"msite/internal/fetch"
	"msite/internal/imaging"
	"msite/internal/obs"
	"msite/internal/progressive"
	"msite/internal/raster"
	"msite/internal/session"
)

// coarseSnapshotName is the asset name of the coarse first rung of a
// progressive snapshot.
const coarseSnapshotName = "snapshot-coarse.jpg"

// snapState tracks one session view's background snapshot render. The
// asset handler waits on the rungs instead of 404ing one the renderer
// has not produced yet.
type snapState struct {
	coarseOnce sync.Once
	// coarse closes when the view holds the coarse rung (or the render
	// finished without one).
	coarse chan struct{}
	// full closes when the render completed; err is set first.
	full chan struct{}
	err  error
}

func newSnapState() *snapState {
	return &snapState{coarse: make(chan struct{}), full: make(chan struct{})}
}

func (st *snapState) closeCoarse() { st.coarseOnce.Do(func() { close(st.coarse) }) }

func flushNow(w http.ResponseWriter) {
	if f, ok := w.(http.Flusher); ok {
		f.Flush()
	}
}

// streamEntry serves the entry page flush-early: the overlay head (all
// statically-known markup, including the snapshot img reference) is on
// the wire before the origin fetch begins, above-the-fold image-map
// areas follow the attribute phase, and the snapshot renders on a
// background goroutine the asset handler waits on. Perceived latency
// (DRIVESHAFT's argument) tracks the first flush, not the pipeline.
func (p *Proxy) streamEntry(w http.ResponseWriter, r *http.Request, sess *session.Session, start time.Time) {
	site := p.cfg.Spec.Name
	ov := attr.Overlay{
		SnapshotURL: p.prefix + "/asset/" + p.snapName,
		Scale:       p.snapshotScale(),
		Title:       site,
	}
	if p.cfg.SnapshotProgressive {
		// The overlay paints the coarse rung first and trades up to the
		// versioned full-fidelity URL once its encode completes.
		gen := p.snapGen.Add(1)
		ov.UpgradeURL = fmt.Sprintf("%s?v=%d", ov.SnapshotURL, gen)
		ov.SnapshotURL = p.prefix + "/asset/" + coarseSnapshotName
	}
	atfHeight := p.cfg.ATFHeight
	if atfHeight == 0 {
		atfHeight = DefaultATFHeight
	}

	// Commit the response and flush the head before any origin work:
	// TTFB decouples from the adaptation pipeline entirely.
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	frags := p.applier.BuildOverlayStream(ov, nil, atfHeight)
	_, _ = w.Write(frags.Head)
	flushNow(w)
	obs.TraceFrom(r.Context()).Annotate("stream", "head_flushed")

	v, err := p.ensureAdaptation(r.Context(), sess, r.URL.Query().Get("refresh") == "1")
	if err != nil {
		p.streamAbort(w, r, err)
		return
	}

	// Kick the snapshot render off now: it overlaps with the client
	// receiving and parsing the map fragments below.
	p.ensureSnapshotAsync(v)

	frags = p.applier.BuildOverlayStream(ov, v.bundle.areas, atfHeight)
	_, _ = w.Write(frags.ATF)
	_, _ = io.WriteString(w, attr.ATFMarker)
	flushNow(w)
	p.obs.Histogram("msite_proxy_atf_seconds", "site", site, "mode", "streaming").
		ObserveDuration(time.Since(start))
	_, _ = w.Write(frags.BTF)
	_, _ = w.Write(frags.Tail)
}

// streamAbort degrades a streamed entry whose adaptation failed after
// the 200 and head were already on the wire: the document is closed
// in-band with a human-usable message (and an auth link for origin
// challenges) instead of a broken status.
func (p *Proxy) streamAbort(w http.ResponseWriter, r *http.Request, err error) {
	obs.TraceFrom(r.Context()).Annotate("error", err.Error())
	_ = p.degrade(r.Context(), "stream_entry", err)
	msg := "origin unavailable; retry shortly"
	var authErr *fetch.AuthRequiredError
	if errors.As(err, &authErr) {
		back := url.QueryEscape(r.URL.RequestURI())
		msg = fmt.Sprintf(`<a href="%s/auth?back=%s">authentication required</a>`, p.prefix, back)
	}
	fmt.Fprintf(w, "</map><p>%s</p></body></html>", msg)
}

// ensureSnapshotAsync starts (or joins) this view's background snapshot
// render. A completed successful render is reused; a failed one is
// retried.
func (p *Proxy) ensureSnapshotAsync(v *sessionView) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if st := v.render; st != nil {
		select {
		case <-st.full:
			if st.err == nil {
				return
			}
			// A failed render is retried below.
		default:
			return // in flight
		}
	}
	v.render = newSnapState()
	go p.runSnapshotAsync(v, v.render)
}

// runSnapshotAsync executes one background snapshot render. The context
// is detached deliberately: the render is shared, cached work, and a
// client disconnecting mid-stream must not abort it for the session's
// (or, through the shared cache, every session's) next request.
func (p *Proxy) runSnapshotAsync(v *sessionView, st *snapState) {
	ctx := context.Background()
	var err error
	if p.cfg.SnapshotProgressive {
		err = p.snapshotProgressive(ctx, v, st)
	} else {
		_, _, err = p.snapshot(ctx, v)
	}
	st.err = err
	st.closeCoarse()
	close(st.full)
}

// snapshotProgressive renders the view's snapshot as a temporal
// fidelity ladder: the coarse rung is published (shown to the session
// and put in the shared cache) the moment rasterization finishes, while
// the full-fidelity encode — byte-identical to the buffered path's — is
// still running. The full artifact lands in the shared cache under the
// same key the buffered path uses, so streaming and buffered proxies
// interoperate across restarts.
func (p *Proxy) snapshotProgressive(ctx context.Context, v *sessionView, st *snapState) error {
	fid := snapshotFidelity(p.cfg.Spec)
	// Zero for a per-session snapshot, in which case the cache Puts
	// below store nothing.
	ttl := p.sharedSnapshotTTL()
	site := p.cfg.Spec.Name
	showCoarse := func(data []byte) {
		showRung(&v.coarse, coarseSnapshotName, data)
		st.closeCoarse()
	}

	var filled atomic.Bool
	fill := func() (cache.Entry, error) {
		filled.Store(true)
		p.nSnapshotRenders.Add(1)
		p.obs.Counter("msite_proxy_snapshot_renders_total", "site", site).Inc()
		sp := obs.StartSpan(ctx, "layout")
		doc := tidyDoc(string(v.bundle.pages[mainPage].data))
		res := layoutForDoc(doc, p.width)
		sp.End()
		// Raster and coarse encode interleave inside progressive.Render;
		// one span covers the ladder.
		sp = obs.StartSpan(ctx, "raster_encode")
		out, err := progressive.Render(res, progressive.Config{
			Raster:   raster.Options{Images: v.bundle.images, Workers: p.rasterWork},
			Fidelity: fid,
			Scale:    p.snapshotScale(),
			OnCoarse: func(a progressive.Artifact) {
				p.cfg.Cache.Put("snapshot-coarse:"+site, cache.Entry{Data: a.Data, MIME: a.MIME}, ttl)
				showCoarse(a.Data)
			},
		})
		sp.End()
		if err != nil {
			return cache.Entry{}, err
		}
		meta := fmt.Sprintf("%d,%d", out.Full.Width, out.Full.Height)
		return cache.Entry{Data: out.Full.Data, MIME: fid.MIME() + ";" + meta}, nil
	}

	var entry cache.Entry
	var err error
	if ttl > 0 {
		entry, err = p.cfg.Cache.GetOrFill("snapshot:"+site, ttl, fill)
		if err == nil && !filled.Load() {
			p.nSnapshotHits.Add(1)
			p.obs.Counter("msite_proxy_snapshot_hits_total", "site", site).Inc()
		}
	} else {
		entry, err = fill()
	}
	if err != nil {
		return err
	}
	if !filled.Load() {
		// The full artifact came out of the shared cache, so this
		// session has no coarse rung yet. Reuse a cached one, or derive
		// it from the full bytes (cheap relative to a render).
		if e, ok := p.cfg.Cache.Get("snapshot-coarse:" + site); ok {
			showCoarse(e.Data)
		} else if data, derr := coarseFromFull(entry.Data); derr == nil {
			p.cfg.Cache.Put("snapshot-coarse:"+site, cache.Entry{Data: data, MIME: "image/jpeg"}, ttl)
			showCoarse(data)
		}
	}
	showRung(&v.snapshot, p.snapName, entry.Data)
	return nil
}

// coarseFromFull derives the coarse rung from an already-encoded full
// snapshot — the shared-cache-hit path, where no paint ran to feed the
// incremental accumulator.
func coarseFromFull(full []byte) ([]byte, error) {
	img, err := imaging.Decode(full)
	if err != nil {
		return nil, err
	}
	coarse := imaging.ScaleFactor(img, progressive.DefaultCoarseScale)
	data, err := imaging.EncodeJPEG(coarse, progressive.DefaultCoarseQuality)
	imaging.PutRGBA(coarse)
	return data, err
}

// sessionAsset resolves an asset name against a session's view: the
// snapshot rungs it has been shown, else its Bundle's images. A streamed
// entry references the rungs before the background render has produced
// them, so a missing rung waits for that render (bounded by the request
// context) instead of 404ing the race. Nil means not found.
func (p *Proxy) sessionAsset(r *http.Request, v *sessionView, name string) *artifact {
	var rung *atomic.Pointer[artifact]
	switch name {
	case p.snapName:
		rung = &v.snapshot
	case coarseSnapshotName:
		rung = &v.coarse
	default:
		return v.bundle.assets[name]
	}
	if a := rung.Load(); a != nil {
		return a
	}
	v.mu.Lock()
	st := v.render
	v.mu.Unlock()
	if st == nil {
		return nil
	}
	ch := st.full
	if name == coarseSnapshotName {
		ch = st.coarse
	}
	select {
	case <-ch:
	case <-r.Context().Done():
	}
	return rung.Load()
}
