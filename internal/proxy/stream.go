package proxy

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/url"

	"msite/internal/fetch"
	"msite/internal/obs"
)

// snapState tracks one session view's background snapshot render. The
// asset handler waits on it instead of 404ing a snapshot the renderer
// has not produced yet.
type snapState struct {
	// done closes when the render completed; err is set first.
	done chan struct{}
	err  error
}

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
	obs.TraceFrom(r.Context()).Annotate("degraded_stream_entry", err.Error())
	p.degrade("stream_entry")
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
		case <-st.done:
			if st.err == nil {
				return
			}
			// A failed render is retried below.
		default:
			return // in flight
		}
	}
	st := &snapState{done: make(chan struct{})}
	v.render = st
	// The context is detached deliberately: the render is shared, cached
	// work, and a client disconnecting mid-stream must not abort it for
	// the session's (or, through the shared cache, every session's) next
	// request.
	go func() {
		_, _, st.err = p.snapshot(context.Background(), v)
		close(st.done)
	}()
}

// sessionAsset resolves an asset name against a session's view: the
// snapshot it has been shown, else its Bundle's images. A streamed entry
// references the snapshot before the background render has produced it,
// so a missing snapshot waits for that render (bounded by the request
// context) instead of 404ing the race. Nil means not found.
func (p *Proxy) sessionAsset(r *http.Request, v *sessionView, name string) *artifact {
	if name != p.snapName {
		return v.bundle.assets[name]
	}
	if a := v.snapshot.Load(); a != nil {
		return a
	}
	v.mu.Lock()
	st := v.render
	v.mu.Unlock()
	if st == nil {
		return nil
	}
	select {
	case <-st.done:
	case <-r.Context().Done():
	}
	return v.snapshot.Load()
}
