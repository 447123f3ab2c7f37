package proxy

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"sync"
	"sync/atomic"

	"msite/internal/fetch"
	"msite/internal/imaging"
	"msite/internal/obs"
	"msite/internal/progressive"
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

// runSnapshotAsync executes one background snapshot render; under
// SnapshotProgressive the view gets the coarse rung the moment
// rasterization finishes, while the full-fidelity encode is still
// running. The context is detached deliberately: the render is shared,
// cached work, and a client disconnecting mid-stream must not abort it
// for the session's (or, through the shared cache, every session's) next
// request.
func (p *Proxy) runSnapshotAsync(v *sessionView, st *snapState) {
	var showCoarse func([]byte)
	if p.cfg.SnapshotProgressive {
		showCoarse = func(data []byte) {
			showRung(&v.coarse, coarseSnapshotName, data)
			st.closeCoarse()
		}
	}
	_, _, st.err = p.snapshot(context.Background(), v, showCoarse)
	st.closeCoarse()
	close(st.full)
}

// coarseFromFull derives the coarse rung from an already-encoded full
// snapshot — the shared-cache-hit path, where no paint ran to feed the
// incremental accumulator.
func coarseFromFull(full []byte) ([]byte, error) {
	img, err := imaging.Decode(full)
	if err != nil {
		return nil, err
	}
	coarse := imaging.ScaleFactor(img, progressive.CoarseScale)
	data, err := imaging.EncodeJPEG(coarse, progressive.CoarseQuality)
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
