package proxy

import (
	"fmt"
	"net/http"
	"net/url"
	"strings"
	"unicode"

	"msite/internal/fetch"
	"msite/internal/obs"
	"msite/internal/session"
)

// This file is the proxy's origin-credential surface: the marshaled form
// login, the lightweight HTTP authentication page and logout.

// handleLogin marshals the origin's form login through the proxy: the
// mobile client submits the lightweight form, the proxy replays it
// against the origin with the session's cookie jar, and the jar picks up
// the origin's authentication cookies.
func (p *Proxy) handleLogin(w http.ResponseWriter, r *http.Request) {
	loginCfg := p.cfg.Spec.Login
	if loginCfg.URL == "" {
		http.NotFound(w, r)
		return
	}
	sess, ok := p.ensureSession(w, r)
	if !ok {
		return
	}
	if r.Method != http.MethodPost {
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		fmt.Fprintf(w, `<!DOCTYPE html><html><head><title>Log in</title>
<meta name="viewport" content="width=device-width, initial-scale=1"></head>
<body><h3>Log in</h3>
<form method="post" action="%s/login">
<p><input type="text" name="username" placeholder="User"></p>
<p><input type="password" name="password" placeholder="Password"></p>
<p><input type="submit" value="Log in"></p>
</form></body></html>`, p.prefix)
		return
	}
	if err := r.ParseForm(); err != nil {
		http.Error(w, "bad form", http.StatusBadRequest)
		return
	}
	userField := loginCfg.UserField
	if userField == "" {
		userField = "username"
	}
	passField := loginCfg.PassField
	if passField == "" {
		passField = "password"
	}
	f := fetch.New(sess, p.cfg.FetchOptions...)
	_, err := f.PostFormContext(r.Context(), loginCfg.URL, url.Values{
		userField: {r.FormValue("username")},
		passField: {r.FormValue("password")},
	})
	if err != nil {
		obs.TraceFrom(r.Context()).Annotate("error", err.Error())
		http.Error(w, "login failed", http.StatusForbidden)
		return
	}
	// The session now carries a marshaled origin login: its adaptations
	// are user-specific and must never coalesce with other sessions'.
	sess.MarkPersonalized()
	// Re-adapt: the logged-in origin page may differ.
	p.attach(sess.ID, nil)
	http.Redirect(w, r, p.prefix+"/", http.StatusSeeOther)
}

// handleAuth is the lightweight HTTP authentication page (§3.3): a
// minimal form whose credentials the proxy stores and replays on the
// client's behalf.
func (p *Proxy) handleAuth(w http.ResponseWriter, r *http.Request) {
	sess, ok := p.ensureSession(w, r)
	if !ok {
		return
	}
	back := authReturn(p.prefix, r.URL.Query().Get("back"))
	host := r.URL.Query().Get("host")
	if r.Method == http.MethodPost {
		if err := r.ParseForm(); err != nil {
			http.Error(w, "bad form", http.StatusBadRequest)
			return
		}
		if host == "" {
			host = originHost(p.cfg.Spec.Origin)
		}
		sess.SetAuth(host, session.Credentials{
			User: r.FormValue("username"),
			Pass: r.FormValue("password"),
		})
		// Stored HTTP credentials make this session's origin view
		// user-specific; exclude it from cross-session coalescing.
		sess.MarkPersonalized()
		http.Redirect(w, r, back, http.StatusSeeOther)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	fmt.Fprintf(w, `<!DOCTYPE html><html><head><title>Authentication required</title>
<meta name="viewport" content="width=device-width, initial-scale=1"></head>
<body><h3>Authentication required</h3>
<form method="post" action="%s/auth?back=%s&host=%s">
<p><input type="text" name="username" placeholder="User"></p>
<p><input type="password" name="password" placeholder="Password"></p>
<p><input type="submit" value="Sign in"></p>
</form></body></html>`, p.prefix, url.QueryEscape(back), url.QueryEscape(host))
}

// authReturn is where the auth page sends the user back to: a path
// under the proxy's mount prefix, or the entry page. A scheme-relative
// "//host", a "/\host" or a control character a browser strips (which
// turns "/<tab>/host" into "//host") would leave the site right after the
// user typed origin credentials, so none of them is honoured.
func authReturn(prefix, back string) string {
	rest, ok := strings.CutPrefix(back, prefix+"/")
	if !ok || strings.HasPrefix(rest, "/") || strings.HasPrefix(rest, `\`) ||
		strings.IndexFunc(back, unicode.IsControl) >= 0 {
		return prefix + "/"
	}
	return back
}

// handleLogout implements the replaced logout button: clear the proxy's
// cookie jar for this user.
func (p *Proxy) handleLogout(w http.ResponseWriter, r *http.Request) {
	sess, ok := p.ensureSession(w, r)
	if !ok {
		return
	}
	if err := sess.ClearCookies(); err != nil {
		serverError(w, r, http.StatusInternalServerError, "logout failed", err)
		return
	}
	p.attach(sess.ID, nil) // next visit re-fetches logged-out content
	http.Redirect(w, r, p.prefix+"/", http.StatusSeeOther)
}

func originHost(origin string) string {
	u, err := url.Parse(origin)
	if err != nil {
		return ""
	}
	return u.Host
}
