// Package proxy implements m.Site's multi-session content adaptation
// proxy (§3.2): the generated shell code's runtime. It manages session
// cookies, downloads origin pages on demand with per-user cookie jars
// and HTTP auth interposition, runs the source-level filter phase and
// the DOM-level attribute phase, keeps the generated subpages and images
// as one immutable in-memory Bundle that sessions reference, serves the
// cached snapshot entry page, and satisfies rewritten AJAX calls — all
// without a heavyweight browser instance per client.
package proxy

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
	"unicode"

	"msite/internal/admission"
	"msite/internal/ajax"
	"msite/internal/attr"
	"msite/internal/cache"
	"msite/internal/dom"
	"msite/internal/fetch"
	"msite/internal/filter"
	"msite/internal/imaging"
	"msite/internal/layout"
	"msite/internal/obs"
	"msite/internal/progressive"
	"msite/internal/quality"
	"msite/internal/raster"
	"msite/internal/render"
	"msite/internal/session"
	"msite/internal/spec"
)

// Config wires a Proxy.
type Config struct {
	// Spec is the adaptation specification (required, validated).
	Spec *spec.Spec
	// Sessions manages per-client state (required).
	Sessions *session.Manager
	// Cache is the public cross-session render cache (required). With a
	// *cache.Tiered it is also the durable tier adapted artifacts
	// persist through.
	Cache cache.Layer
	// ViewportWidth overrides the spec's server-side render width.
	ViewportWidth int
	// FetchOptions are applied to every origin fetcher.
	FetchOptions []fetch.Option
	// PathPrefix mounts the proxy under a URL prefix (e.g. "/p/forum"),
	// letting one server host the adaptation proxies for several pages
	// of a site (see MultiProxy). Empty mounts at the root.
	PathPrefix string
	// Obs receives the proxy's metrics and request traces. Nil creates a
	// private registry (core wires one shared registry across the stack).
	Obs *obs.Registry
	// Logger, when non-nil, emits one structured line per request with
	// session id, handler kind, cache outcome, status, and duration.
	// Nil disables request logging (the default, and what tests use).
	Logger *slog.Logger
	// ServeStale keeps serving a session's previous adaptation (and the
	// shared snapshot up to DefaultStaleFor past its TTL, while a
	// background refresh runs) when re-adaptation fails because the
	// origin is unreachable, instead of returning 502.
	ServeStale bool
	// Admission is the overload-protection tier: the adaptation
	// concurrency limiter and per-client rate limiter. Nil admits
	// everything (the default, and what most tests use). One controller
	// is shared across every site of a MultiProxy.
	Admission *admission.Controller
	// PersistBundles stores each non-personalized build product (subpage
	// set, generated files, decoded images) in the cache keyed by
	// (site, spec hash, device class, fidelity), so a restarted proxy —
	// whose Cache is backed by a durable tier — reuses the build instead
	// of re-running the pipeline. Off by default; core enables it when a
	// store is configured.
	PersistBundles bool
	// Stream enables flush-early entry serving: the overlay head is
	// written and flushed before the origin fetch begins, above-the-fold
	// image-map areas follow as soon as the attribute phase has regions,
	// and the snapshot renders on a background goroutine the asset
	// handler waits on. Off, the entry buffers as before.
	Stream bool
	// Demand, when non-nil, is called with the site name on every entry
	// and subpage request — the live-traffic signal the prefetch
	// crawler's demand ranking decays over. Must be cheap and
	// non-blocking; it runs on the serve path.
	Demand func(site string)
	// RepairRules selects mobile-repair rules (internal/quality) to run
	// over every adapted document and subpage after the attribute
	// phase: a comma-separated rule list, or "all". Empty disables the
	// pass. Unknown rule names are a construction error.
	RepairRules string
	// ParityCheck enables the content-parity validator: every build
	// inventories origin vs adapted text/links/forms, records the score
	// in metrics, notes, and the /debug/parity report.
	ParityCheck bool
	// ParityMinScore fails the build loudly when the parity score drops
	// below it, and turns the parity check on when above 0 (0 disables
	// the hard gate; 1 demands every non-sanctioned content item survive
	// adaptation). It must lie in [0, 1].
	ParityMinScore float64
	// Cluster, when non-nil, routes cold non-personalized builds to the
	// bundle key's consistent-hash ring owner (internal/cluster) before
	// spending a local pipeline run. Personalized sessions always build
	// locally (sticky routing). Requires PersistBundles — without a
	// bundle key there is nothing to route by.
	Cluster ClusterHook
}

// DefaultATFHeight is the above-the-fold boundary (in scaled snapshot
// pixels) of a streamed entry's fragment split — a typical small-screen
// viewport height.
const DefaultATFHeight = 480

// DefaultBundleTTL is a persisted bundle's lifetime. A spec change
// rotates the bundle key, so the TTL only has to cover origin-content
// drift.
const DefaultBundleTTL = time.Hour

// TraceHeader is the response header carrying the request's trace ID;
// the same ID keys the request's /debug/traces entry and its "trace"
// slog attribute, so client reports, traces, and logs correlate.
const TraceHeader = "X-MSite-Trace"

// SessionCapRetryAfter is the Retry-After hint sent with 503s caused by
// the -max-sessions cap: sessions free up on the idle-GC timescale, not
// the pipeline one.
const SessionCapRetryAfter = 30 * time.Second

// DefaultStaleFor is how long past its TTL a shared snapshot stays
// servable when ServeStale is on.
const DefaultStaleFor = 5 * time.Minute

// Stats counts proxy work for the scalability experiments.
type Stats struct {
	// Requests is every proxied request.
	Requests uint64
	// Adaptations is full adaptation passes (fetch+filter+attr).
	Adaptations uint64
	// SnapshotRenders is server-side graphical renders (the expensive
	// browser-path work).
	SnapshotRenders uint64
	// SnapshotHits is snapshots served from the shared cache.
	SnapshotHits uint64
}

// Proxy is the m.Site content adaptation proxy for one origin page.
type Proxy struct {
	cfg        Config
	dispatcher *ajax.Dispatcher
	applier    *attr.Applier
	width      int
	prefix     string
	obs        *obs.Registry
	metrics    *metrics
	logger     *slog.Logger
	// snapName is the asset name of the entry snapshot, snapKey its
	// cross-session cache key and snapCacheControl the Cache-Control its
	// asset goes out with.
	snapName, snapKey, snapCacheControl string
	// overlay is the entry overlay as this proxy builds every one: all of
	// it but the snapshot's geometry, which a render decides.
	overlay attr.Overlay
	// streamHead is a streamed entry's head, flushed before the
	// adaptation starts; it references only static URLs.
	streamHead []byte
	// bundleKey is the durable-bundle cache key for this proxy's
	// (site, spec hash, device class, fidelity); empty when
	// PersistBundles is off.
	bundleKey string
	// shared is the decoded form of sharedSrc, the encoded bundle record
	// this proxy last put into or read from the cache. It is a memo, not
	// an authority: loadBundle uses it only while the cache still returns
	// those very bytes, so TTL expiry, Delete and Purge force a rebuild.
	// bundleVal is that record's validator, which TouchBundle refreshes.
	sharedMu  sync.Mutex
	shared    *Bundle
	sharedSrc []byte
	bundleVal BundleValidator

	// Work counters are atomic (not under mu) so Stats() snapshots and
	// metric scrapes never contend with the adaptation hot path.
	nRequests        atomic.Uint64
	nAdaptations     atomic.Uint64
	nSnapshotRenders atomic.Uint64
	nSnapshotHits    atomic.Uint64

	// coalesce collapses concurrent cold adaptations of the same page
	// across sessions into one pipeline run (admission control tier 2);
	// personalized sessions bypass it.
	coalesce *admission.Coalescer[*Bundle]

	mu      sync.Mutex
	adapted map[string]*sessionView // by session ID
	// live counts the sessions attached to each Bundle, so /stats walks
	// distinct bundles rather than every session.
	live     map[*Bundle]int
	inflight map[string]chan struct{}

	// repairRules is the parsed RepairRules pass (nil when disabled);
	// lastParity is the most recent parity report for /debug/parity.
	repairRules []quality.Rule
	lastParity  atomic.Pointer[quality.Parity]
}

// sessionView is all a session owns of its adaptation: which Bundle it
// is looking at, and the snapshot it was last shown (the shared snapshot
// may be re-rendered under a session; its asset must keep matching the
// entry page it already has).
type sessionView struct {
	bundle *Bundle
	// private marks a Bundle built with this session's own credentials:
	// nothing rendered from it may reach the cross-session cache.
	private  bool
	snapshot atomic.Pointer[artifact]

	// render is the background snapshot render of a streamed entry; the
	// asset handler waits on it.
	mu     sync.Mutex
	render *snapState
}

// attach points a session at a view of a Bundle, or detaches it when v
// is nil, keeping the per-Bundle session count.
func (p *Proxy) attach(id string, v *sessionView) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if old := p.adapted[id]; old != nil {
		if p.live[old.bundle]--; p.live[old.bundle] == 0 {
			delete(p.live, old.bundle)
		}
	}
	if v == nil {
		delete(p.adapted, id)
		return
	}
	p.adapted[id] = v
	p.live[v.bundle]++
}

// New validates the config and builds the proxy.
func New(cfg Config) (*Proxy, error) {
	if cfg.Spec == nil {
		return nil, errors.New("proxy: nil spec")
	}
	if err := cfg.Spec.Validate(); err != nil {
		return nil, err
	}
	if cfg.Sessions == nil {
		return nil, errors.New("proxy: nil session manager")
	}
	if cfg.Cache == nil {
		return nil, errors.New("proxy: nil cache")
	}
	width := cfg.ViewportWidth
	if width == 0 {
		width = cfg.Spec.ViewportWidth
	}
	if width == 0 {
		width = layout.DefaultViewport.Width
	}
	dispatcher, err := ajax.NewDispatcher(cfg.Spec.Actions, cfg.Cache)
	if err != nil {
		return nil, err
	}
	if !(cfg.ParityMinScore >= 0 && cfg.ParityMinScore <= 1) {
		return nil, fmt.Errorf("proxy: parity minimum score %v outside [0, 1]", cfg.ParityMinScore)
	}
	// A minimum score is a parity check with a gate.
	cfg.ParityCheck = cfg.ParityCheck || cfg.ParityMinScore > 0
	prefix := strings.TrimSuffix(cfg.PathPrefix, "/")
	if prefix != "" && !strings.HasPrefix(prefix, "/") {
		return nil, fmt.Errorf("proxy: path prefix %q must start with /", cfg.PathPrefix)
	}
	reg := cfg.Obs
	if reg == nil {
		reg = obs.NewRegistry()
	}
	cfg.Sessions.InstrumentObs(reg)
	if cfg.Admission != nil {
		cfg.Admission.SetObs(reg)
	}
	p := &Proxy{
		cfg:        cfg,
		dispatcher: dispatcher,
		width:      width,
		prefix:     prefix,
		obs:        reg,
		metrics:    newMetrics(reg, cfg.Spec.Name),
		logger:     cfg.Logger,
		snapName:   "snapshot" + snapshotFidelity(cfg.Spec).Ext(),
		snapKey:    "snapshot:" + cfg.Spec.Name,
		coalesce:   admission.NewCoalescer[*Bundle](),
		adapted:    make(map[string]*sessionView),
		live:       make(map[*Bundle]int),
		inflight:   make(map[string]chan struct{}),
	}
	if cfg.RepairRules != "" {
		rules, err := quality.ParseRules(cfg.RepairRules)
		if err != nil {
			return nil, fmt.Errorf("proxy: %w", err)
		}
		p.repairRules = rules
	}
	if cfg.PersistBundles {
		key, err := bundleKey(cfg.Spec, width)
		if err != nil {
			return nil, err
		}
		p.bundleKey = key
	}
	// Release a session's view when the session manager expires,
	// deletes, or GCs the session — without this the adapted map grows
	// for the life of the proxy.
	cfg.Sessions.OnExpire(func(id string) { p.attach(id, nil) })
	p.snapCacheControl = "private, max-age=300"
	if ttl := cfg.Spec.Snapshot.CacheTTLSeconds; ttl > 0 {
		p.snapCacheControl = "private, max-age=" + strconv.Itoa(ttl)
	}
	p.applier = &attr.Applier{
		ViewportWidth: width,
		SubpageURL:    func(name string) string { return prefix + "/subpage/" + url.PathEscape(name) },
		AssetURL:      func(name string) string { return prefix + "/asset/" + url.PathEscape(name) },
		AJAXEndpoint:  prefix + "/ajax",
	}
	p.overlay = attr.Overlay{
		SnapshotURL: prefix + "/asset/" + p.snapName,
		Scale:       p.snapshotScale(),
		Title:       cfg.Spec.Name,
	}
	p.streamHead = p.applier.BuildOverlayStream(p.overlay, nil, DefaultATFHeight).Head
	return p, nil
}

// Stats returns a snapshot of the proxy counters. It reads atomics —
// never the proxy mutex — so it is safe to poll at any rate.
func (p *Proxy) Stats() Stats {
	return Stats{
		Requests:        p.nRequests.Load(),
		Adaptations:     p.nAdaptations.Load(),
		SnapshotRenders: p.nSnapshotRenders.Load(),
		SnapshotHits:    p.nSnapshotHits.Load(),
	}
}

// Obs exposes the proxy's metric registry (shared with core when wired
// through it).
func (p *Proxy) Obs() *obs.Registry { return p.obs }

// statusRecorder captures the response status for metrics and logging.
// It forwards the optional ResponseWriter interfaces the stdlib sniffs
// for: Flush (streaming handlers stall behind a recorder that hides
// http.Flusher) and ReadFrom (the sendfile fast path io.Copy probes
// for).
type statusRecorder struct {
	http.ResponseWriter
	status int
	// firstByte is when the response first became visible to the client
	// (first body write, explicit header commit, or flush) — the
	// server-side TTFB mark the streaming histograms observe.
	firstByte time.Time
}

// markFirstByte stamps the first moment response bytes leave the
// handler; later calls are no-ops.
func (r *statusRecorder) markFirstByte() {
	if r.firstByte.IsZero() {
		r.firstByte = time.Now()
	}
}

// WriteHeader implements http.ResponseWriter.
func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.markFirstByte()
	r.ResponseWriter.WriteHeader(code)
}

// Write implements io.Writer, stamping TTFB on the first body write.
func (r *statusRecorder) Write(b []byte) (int, error) {
	r.markFirstByte()
	return r.ResponseWriter.Write(b)
}

// Flush implements http.Flusher when the underlying writer does;
// otherwise it is a no-op rather than a panic. The streaming entry
// path depends on this passthrough: a recorder that hid Flusher would
// buffer the early-flushed head until the handler returned.
func (r *statusRecorder) Flush() {
	r.markFirstByte()
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// ReadFrom preserves the underlying writer's io.ReaderFrom fast path
// (sendfile on *http.response); without it io.Copy falls back to the
// buffered loop for every recorder-wrapped response.
func (r *statusRecorder) ReadFrom(src io.Reader) (int64, error) {
	r.markFirstByte()
	if rf, ok := r.ResponseWriter.(io.ReaderFrom); ok {
		return rf.ReadFrom(src)
	}
	// Copy through the plain Writer; going through r itself would
	// recurse into this method forever.
	return io.Copy(struct{ io.Writer }{r.ResponseWriter}, src)
}

// ServeHTTP implements http.Handler. Every request is counted, traced
// (the trace lands in the obs ring buffer for /debug/traces), timed into
// a per-handler latency histogram, and optionally logged.
func (p *Proxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	p.nRequests.Add(1)
	reqStart := time.Now()

	path := r.URL.Path
	if p.prefix != "" {
		if !strings.HasPrefix(path, p.prefix) {
			http.NotFound(w, r)
			return
		}
		path = strings.TrimPrefix(path, p.prefix)
		if path == "" {
			path = "/"
		}
	}

	kind := kindOf(path)
	km := &p.metrics.kinds[kind]
	km.requests.Inc()
	if p.cfg.Demand != nil && (kind == kindEntry || kind == kindSubpage) {
		p.cfg.Demand(p.cfg.Spec.Name)
	}
	ctx, tr := p.obs.StartTrace(r.Context(), kind.String())
	r = r.WithContext(ctx)
	rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
	// The trace ID goes back to the client so a slow or failed request
	// can be matched to its /debug/traces entry and log lines.
	rec.Header()[traceHeaderKey] = []string{tr.ID()}

	if ok, retry := p.allowClient(r); !ok {
		obs.TraceFrom(ctx).Annotate("shed", admission.ReasonRateLimit)
		rec.Header().Set("Retry-After", strconv.Itoa(admission.RetryAfterSeconds(retry)))
		http.Error(rec, "rate limit exceeded, retry later", http.StatusTooManyRequests)
		d := tr.End()
		km.latency.ObserveDuration(d)
		p.logRequest(r, tr, kind, rec.status, d)
		return
	}

	switch kind {
	case kindEntry:
		p.handleEntry(rec, r)
	case kindSubpage:
		p.handleSubpage(rec, r, strings.TrimPrefix(path, "/subpage/"))
	case kindAsset:
		p.handleAsset(rec, r, strings.TrimPrefix(path, "/asset/"))
	case kindAJAX:
		p.handleAJAX(rec, r)
	case kindAuth:
		p.handleAuth(rec, r)
	case kindLogin:
		p.handleLogin(rec, r)
	case kindLogout:
		p.handleLogout(rec, r)
	case kindStats:
		p.handleStats(rec, r)
	default:
		http.NotFound(rec, r)
	}

	d := tr.End()
	km.latency.ObserveDuration(d)
	if !rec.firstByte.IsZero() {
		km.ttfb.ObserveDuration(rec.firstByte.Sub(reqStart))
	}
	if rec.status >= 500 {
		km.errors.Inc()
	}
	p.logRequest(r, tr, kind, rec.status, d)
}

// traceHeaderKey is TraceHeader as net/http canonicalizes it, so setting
// it does not canonicalize it again on every response.
var traceHeaderKey = http.CanonicalHeaderKey(TraceHeader)

// allowClient applies the per-client token bucket (admission control
// tier 3). Requests from clients with a session cookie are keyed by the
// cookie value (NATed users stay independent); cookieless first contacts
// fall back to the remote address. Without a rate limiter there is no
// bucket, and no key is derived.
func (p *Proxy) allowClient(r *http.Request) (bool, time.Duration) {
	if !p.cfg.Admission.RateLimited() {
		return true, 0
	}
	return p.cfg.Admission.AllowClient(clientKey(r))
}

// clientKey derives the rate-limit bucket key for a request.
func clientKey(r *http.Request) string {
	if c, err := r.Cookie(session.CookieName); err == nil && c.Value != "" {
		return "s:" + c.Value
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return "a:" + r.RemoteAddr
	}
	return "a:" + host
}

// serverError answers a failed request with a generic body: the error
// detail goes onto the request trace (and, through it, into the
// structured error log line), never into client-visible bytes.
func (p *Proxy) serverError(w http.ResponseWriter, r *http.Request, status int, public string, err error) {
	if err != nil {
		obs.TraceFrom(r.Context()).Annotate("error", err.Error())
	}
	http.Error(w, public, status)
}

// shedError answers an admission-shed request: 503 (or 429 for rate
// limiting) with a Retry-After hint and a generic body, counted under
// msite_admission_shed_total by reason.
func (p *Proxy) shedError(w http.ResponseWriter, r *http.Request, shed *admission.ShedError, err error) {
	p.obs.Counter("msite_admission_shed_total", "reason", shed.Reason).Inc()
	if shed.Reason == admission.ReasonSessionCap {
		// Limiter and rate-limiter sheds already emit from their own
		// SetObs hooks; the session cap is shed here in the proxy.
		p.obs.Emit(obs.EventShed, shed.Reason)
	}
	obs.TraceFrom(r.Context()).Annotate("shed", shed.Reason)
	w.Header().Set("Retry-After", strconv.Itoa(admission.RetryAfterSeconds(shed.RetryAfter)))
	status := http.StatusServiceUnavailable
	if shed.Reason == admission.ReasonRateLimit {
		status = http.StatusTooManyRequests
	}
	p.serverError(w, r, status, "server busy, retry later", err)
}

// logRequest emits the per-request structured log line.
func (p *Proxy) logRequest(r *http.Request, tr *obs.Trace, kind handlerKind, status int, d time.Duration) {
	if p.logger == nil {
		return
	}
	level := slog.LevelInfo
	if status >= 500 {
		level = slog.LevelError
	}
	attrs := []slog.Attr{
		slog.String("trace", tr.ID()),
		slog.String("site", p.cfg.Spec.Name),
		slog.String("handler", kind.String()),
		slog.String("path", r.URL.Path),
		slog.Int("status", status),
		slog.Duration("duration", d),
	}
	noted := tr.Attrs()
	keys := make([]string, 0, len(noted))
	for k := range noted {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		attrs = append(attrs, slog.String(k, noted[k]))
	}
	p.logger.LogAttrs(r.Context(), level, "request", attrs...)
}

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

// handleStats reports the proxy's work counters for operations and the
// scalability experiments, plus any adaptation notes (objects whose
// selectors matched nothing, failed relocations) the administrator
// should see. The counters come from the same atomics the obs registry
// reads; /metrics is the richer surface (histograms, per-handler
// series), this endpoint stays for backward compatibility.
func (p *Proxy) handleStats(w http.ResponseWriter, _ *http.Request) {
	stats := p.Stats()
	p.mu.Lock()
	noteSet := make(map[string]bool)
	for b := range p.live {
		for _, note := range b.notes {
			noteSet[note] = true
		}
	}
	p.mu.Unlock()
	notes := make([]string, 0, len(noteSet))
	for note := range noteSet {
		notes = append(notes, note)
	}
	sort.Strings(notes)
	payload := map[string]any{
		"requests":         stats.Requests,
		"adaptations":      stats.Adaptations,
		"snapshot_renders": stats.SnapshotRenders,
		"snapshot_hits":    stats.SnapshotHits,
		"sessions":         p.cfg.Sessions.Len(),
		"notes":            notes,
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	_ = enc.Encode(payload)
}

// ensureSession wraps session issuance with error reporting. The
// -max-sessions cap surfaces as a 503 shed with a Retry-After on the
// session-GC timescale; other failures are generic 500s.
func (p *Proxy) ensureSession(w http.ResponseWriter, r *http.Request) (*session.Session, bool) {
	sess, err := p.cfg.Sessions.Ensure(w, r)
	if err != nil {
		if errors.Is(err, session.ErrTooManySessions) {
			p.shedError(w, r, &admission.ShedError{
				Reason:     admission.ReasonSessionCap,
				RetryAfter: SessionCapRetryAfter,
			}, err)
			return nil, false
		}
		p.serverError(w, r, http.StatusInternalServerError, "session unavailable", err)
		return nil, false
	}
	obs.TraceFrom(r.Context()).Annotate("session", sess.ID)
	return sess, true
}

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
		if err != nil && p.cfg.ServeStale && prev != nil && !isAuthError(err) {
			// The origin is unreachable but this session was adapted
			// before: serve the previous adaptation rather than fail the
			// request (§3.2's "any error handling should the page be
			// unavailable", resolved in favor of availability).
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
// origin fetch, one filter+attr pass, one admission slot) and then
// references the one Bundle from every session. Personalized sessions
// (stored HTTP auth, marshaled logins) never coalesce — their origin
// content may differ per user — so each gets a Bundle built for it
// alone, which is neither loaded from nor saved to the durable bundle.
func (p *Proxy) runAdaptation(ctx context.Context, sess *session.Session, private, force bool) (*Bundle, error) {
	plan := buildPlan{sess: sess, persist: p.bundleKey != "" && !private, force: force, askOwner: true}
	if private {
		// Sticky routing: a session-bearing build never leaves this node
		// (its origin content may be user-specific, and its session state
		// lives here).
		if p.cfg.Cluster != nil {
			obs.TraceFrom(ctx).Annotate("cluster", "sticky_local")
		}
		b, _, err := p.loadOrBuild(ctx, plan)
		return b, err
	}
	b, _, err := p.coalescedBuild(ctx, plan)
	return b, err
}

// buildPlan is what distinguishes one caller's "load, else admit, build,
// save" from another's.
type buildPlan struct {
	// sess is the session the origin is fetched as; nil fetches
	// anonymously.
	sess *session.Session
	// persist loads the durable bundle when there is one and saves the
	// build; force skips the load, so the build overwrites it (the
	// ?refresh=1 and changed-origin paths).
	persist, force bool
	// askOwner consults the cluster ring owner before building: it may
	// already have (or be building) this bundle, and its admission
	// controller then holds the build's one slot.
	askOwner bool
	// background takes the admission slot from the background lane, which
	// fails with admission.ErrBackgroundBusy under live load instead of
	// queueing.
	background bool
}

// loadOrBuild satisfies a plan from the durable bundle (with a tiered
// cache this is where a restarted proxy skips the whole pipeline) or the
// ring owner, else admits and runs one pipeline build. ran reports
// whether the pipeline ran.
func (p *Proxy) loadOrBuild(ctx context.Context, plan buildPlan) (b *Bundle, ran bool, err error) {
	if plan.persist && !plan.force {
		if b, ok := p.loadBundle(ctx); ok {
			return b, false, nil
		}
		if plan.askOwner {
			if b, ok := p.fetchFromOwner(ctx); ok {
				return b, false, nil
			}
		}
	}
	acquire := p.cfg.Admission.Acquire
	if plan.background {
		acquire = p.cfg.Admission.AcquireBackground
	}
	release, err := acquire(ctx)
	if err != nil {
		return nil, false, err
	}
	defer release()
	if b, err = p.buildAdaptation(ctx, fetch.New(plan.sess, p.cfg.FetchOptions...)); err != nil {
		return nil, false, err
	}
	if plan.persist {
		p.saveBundle(b)
	}
	return b, true, nil
}

// coalescedBuild runs loadOrBuild under the site's coalesce key, which
// live cold adaptations, forwarded cluster builds and prefetch builds
// share: whichever arrives while another runs joins it instead of
// fetching the origin twice. ran is false for a caller that joined; a
// joining client request (not the crawler) counts as coalesced.
func (p *Proxy) coalescedBuild(ctx context.Context, plan buildPlan) (b *Bundle, ran bool, err error) {
	b, coalesced, err := p.coalesce.Do(ctx, "adapt:"+p.cfg.Spec.Name, func(bctx context.Context) (*Bundle, error) {
		built, r, err := p.loadOrBuild(bctx, plan)
		ran = r
		return built, err
	})
	if err == nil && coalesced && !plan.background {
		p.metrics.coalesced.Inc()
		obs.TraceFrom(ctx).Annotate("coalesced", "adaptation")
	}
	return b, ran, err
}

// buildAdaptation runs the fetch → filter → attribute → serialization
// pipeline, recording one span per stage (plus an adapt_total envelope)
// into the request trace and the per-stage latency histograms. The
// origin fetch and every subresource download abort when ctx ends, so a
// disconnected client stops costing the origin anything.
func (p *Proxy) buildAdaptation(ctx context.Context, f *fetch.Fetcher) (*Bundle, error) {
	total := obs.StartSpan(ctx, "adapt_total")
	defer total.End()

	sp := obs.StartSpan(ctx, "fetch")
	page, err := f.GetContext(ctx, p.cfg.Spec.Origin)
	sp.End()
	if err != nil {
		return nil, err
	}

	// Every stage past the fetch degrades instead of failing: a broken
	// filter serves the unfiltered source, missing stylesheets render
	// unstyled, a failed attribute phase serves the tidied document
	// whole. The best page we can build beats a 502.
	var degraded []string

	// Filter phase: cheap source-level transforms first (§3.2).
	sp = obs.StartSpan(ctx, "filter")
	src, err := filter.Apply(string(page.Body), p.cfg.Spec.Filters)
	sp.End()
	if err != nil {
		src = string(page.Body)
		degraded = append(degraded, p.degrade(ctx, "filter", err))
	}

	// Inline the origin's linked stylesheets so the attribute phase and
	// every render below see the site's real styling, then download the
	// images a render would need (§3.2: the page fetch "includes
	// downloading any images to be rendered"), then run the attribute
	// phase over the tidied DOM.
	sp = obs.StartSpan(ctx, "subres")
	doc := tidyDoc(src)
	if _, err := f.InlineStylesheetsContext(ctx, doc, page.URL); err != nil {
		degraded = append(degraded, p.degrade(ctx, "stylesheets", err))
	}
	images := fetchImages(ctx, f, doc, page.URL)
	sp.End()
	applier := *p.applier // copy: Images are per-fetch
	applier.Images = images
	sp = obs.StartSpan(ctx, "attr")
	result, err := applier.Apply(p.cfg.Spec, doc)
	if err != nil {
		degraded = append(degraded, p.degrade(ctx, "attributes", err))
		result = &attr.Result{Doc: doc}
	}
	sp.End()

	// Quality pass (post-attr hook): repair rules over the adapted
	// closure, then content parity against the raw origin — before URL
	// re-anchoring so origin and adapted hrefs still compare equal.
	if err := p.qualityPass(ctx, page, result); err != nil {
		return nil, err
	}

	// Re-anchor origin-relative URLs: adapted pages are served from the
	// proxy host, so links back into the origin must be absolute, while
	// proxy-internal references (subpages, assets, rewritten AJAX calls)
	// stay local.
	sp = obs.StartSpan(ctx, "absolutize")
	skip := []string{
		p.prefix + "/subpage/", p.prefix + "/asset/", p.prefix + "/ajax",
		p.prefix + "/login", p.prefix + "/logout", p.prefix + "/auth",
	}
	attr.AbsolutizeURLs(result.Doc, page.URL, skip...)
	for _, sub := range result.Subpages {
		attr.AbsolutizeURLs(sub.Doc, page.URL, skip...)
	}
	sp.End()

	// Serialize the generated files, once per build. (§3.2 stores "all
	// of the files generated during a user's session" under a per-user
	// directory; here they are the Bundle's artifacts, in memory, and a
	// session only references them.)
	sp = obs.StartSpan(ctx, "subpage_split")
	defer sp.End()
	b := &Bundle{
		pages:    make(map[string]*artifact),
		assets:   make(map[string]*artifact),
		subpages: make(map[string]*attr.Subpage),
		notes:    append(result.Notes, degraded...),
		images:   images,
		validator: BundleValidator{
			ETag:         page.ETag,
			LastModified: page.LastModified,
			FetchedAt:    time.Now(),
		},
	}
	b.sheets.Store(result.Sheets)
	addPage := func(name string, data []byte) { b.pages[name] = newArtifact(name, data) }
	addAsset := func(name string, data []byte) { b.assets[name] = newArtifact(name, data) }
	for _, sub := range result.Subpages {
		if why := attr.StylesKeptWhole(sub); why != "" {
			b.notes = append(b.notes, fmt.Sprintf("subpage %q ships its stylesheets whole: %s", sub.Name, why))
		}
		addPage(attr.SubpageFileName(sub.Name), attr.SerializeSubpage(sub))
		if len(sub.ImageData) > 0 {
			addAsset(attr.AssetFileName(sub), sub.ImageData)
		}
		// The page now stands for the document: the Bundle keeps the
		// subpage's description without its DOM, as a decoded one does.
		desc := *sub
		desc.Doc, desc.Sheets = nil, nil
		b.subpages[sub.Name] = &desc
	}
	b.orderAreas()
	for _, thumb := range result.Assets {
		addAsset(thumb.Name, thumb.Data)
	}
	// The adapted main document feeds the snapshot render (it excludes
	// split-off objects, matching what the overlay's regions index).
	addPage(mainPage, pageHTML(result))
	// The MAML-style minimal page, for a spec that serves it. The spec
	// is part of the bundle key, so a persisted bundle has it exactly
	// when its spec asks for it.
	if p.cfg.Spec.MinimalMarkup {
		addPage(minimalPage, attr.MinimalMarkupHTML(p.cfg.Spec.Name, result.Doc))
	}

	p.nAdaptations.Add(1)
	p.metrics.adaptations.Inc()
	return b, nil
}

// qualityPass is the post-attr quality hook: it runs the configured
// mobile-repair rules over the adapted entry document and every
// subpage, then (when ParityCheck is on) validates content parity of
// the raw origin against the adapted closure. A parity score below
// ParityMinScore fails the build — the one quality condition that is
// louder than degradation, because silently serving a page with
// missing content is exactly the failure mode this pass exists to
// catch.
func (p *Proxy) qualityPass(ctx context.Context, page *fetch.Page, result *attr.Result) error {
	if len(p.repairRules) == 0 && !p.cfg.ParityCheck {
		return nil
	}
	sp := obs.StartSpan(ctx, "quality")
	defer sp.End()
	site := p.cfg.Spec.Name

	roots := make([]*dom.Node, 0, 1+len(result.Subpages))
	roots = append(roots, result.Doc)
	for _, sub := range result.Subpages {
		roots = append(roots, sub.Doc)
	}

	for _, root := range roots {
		for rule, n := range quality.RepairAll(p.repairRules, root) {
			p.obs.Counter("msite_quality_repairs_total", "rule", rule, "site", site).Add(uint64(n))
			result.Notes = append(result.Notes,
				fmt.Sprintf("quality: repair rule %s made %d fixes", rule, n))
		}
	}

	if !p.cfg.ParityCheck {
		return nil
	}
	// The origin inventory comes from the *raw* body — before the filter
	// phase — so overzealous filters count as drops too. Subtracting the
	// sanctioned inventory exempts what the spec deliberately removes.
	originDoc := tidyDoc(string(page.Body))
	originInv := quality.InventoryOf(originDoc)
	originInv.Subtract(quality.SanctionedInventory(p.cfg.Spec, originDoc))
	par := quality.Compare(originInv, quality.InventoryOf(roots...))
	p.lastParity.Store(par)
	p.obs.Gauge("msite_quality_parity_score", "site", site).Set(par.Score)
	result.Notes = append(result.Notes, par.Notes()...)
	if min := p.cfg.ParityMinScore; min > 0 && !par.Ok(min) {
		p.obs.Counter("msite_quality_parity_failures_total", "site", site).Inc()
		obs.TraceFrom(ctx).Annotate("parity_failure",
			fmt.Sprintf("score %.4f < %.4f", par.Score, min))
		return fmt.Errorf(
			"proxy: content parity %.4f below minimum %.4f (%d of %d items missing: %d text, %d links, %d forms)",
			par.Score, min, par.MissingItems, par.TotalItems,
			par.TextMissing, par.LinksMissing, par.FormsMissing)
	}
	return nil
}

// ParityReport returns the most recent content-parity report, or nil
// when ParityCheck is off or no build has completed yet.
func (p *Proxy) ParityReport() *quality.Parity { return p.lastParity.Load() }

// degrade records one non-fatal pipeline-stage failure: the stage's
// output is dropped and adaptation continues with what it has. The
// failure lands on the request trace, in the degradation counter, and
// in the adaptation notes /stats reports.
func (p *Proxy) degrade(ctx context.Context, stage string, err error) string {
	p.obs.Counter("msite_proxy_degraded_total", "stage", stage, "site", p.cfg.Spec.Name).Inc()
	obs.TraceFrom(ctx).Annotate("degraded_"+stage, err.Error())
	return fmt.Sprintf("degraded %s: %v", stage, err)
}

// servePage writes one of a Bundle's HTML pages.
func servePage(w http.ResponseWriter, a *artifact) {
	w.Header().Set("Content-Type", a.ctype)
	writeBody(w, a)
}

// writeBody sends an artifact's bytes as a 200 of known length: left to
// itself net/http chunks any body that outgrows its 2 KB buffer.
func writeBody(w http.ResponseWriter, a *artifact) {
	w.Header().Set("Content-Length", a.length)
	_, _ = w.Write(a.data)
}

// handleEntry serves the entry page (§4.3) on its one path: resolve the
// session, decide the page — the MAML-style minimal page, the adapted
// main document when the spec has no snapshot or its render failed, else
// the snapshot overlay — adapt, write. With Stream, the overlay's head,
// which needs nothing from the origin, is on the wire before the
// adaptation starts, so perceived latency tracks the first flush and not
// the pipeline (DRIVESHAFT's argument). The rate limiter and the session
// cap have answered with real statuses by then; a failure after the head
// closes the committed document in-band.
func (p *Proxy) handleEntry(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	sess, ok := p.ensureSession(w, r)
	if !ok {
		return
	}
	minimal := p.cfg.Spec.MinimalMarkup
	overlay := p.cfg.Spec.Snapshot.Enabled && !minimal
	stream := p.cfg.Stream && overlay
	if stream {
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		_, _ = w.Write(p.streamHead)
		flushNow(w)
		obs.TraceFrom(r.Context()).Annotate("stream", "head_flushed")
	}

	v, err := p.ensureAdaptation(r.Context(), sess, queryParam(r, "refresh") == "1")
	if err != nil {
		if stream {
			p.streamAbort(w, r, err)
		} else {
			p.fetchError(w, r, err)
		}
		return
	}
	main := v.bundle.pages[mainPage]
	switch {
	case minimal:
		// The compact layout-only page, no snapshot work at all. Older
		// persisted bundles predate minimal.html; degrade to the adapted
		// main page if it is missing.
		page := v.bundle.pages[minimalPage]
		if page == nil {
			page = main
		}
		servePage(w, page)
		p.metrics.atfMinimal.ObserveDuration(time.Since(start))
	case !overlay:
		servePage(w, main)
	case stream:
		// The render starts now, in the background, overlapping with the
		// client receiving and parsing the map; the asset handler waits
		// on it.
		p.ensureSnapshotAsync(v)
		// The head went out before the render: no geometry.
		frags := p.entryOverlay(v.bundle, 0, 0, DefaultATFHeight)
		_, _ = w.Write(frags.ATF)
		_, _ = io.WriteString(w, attr.ATFMarker)
		flushNow(w)
		p.metrics.atfStreaming.ObserveDuration(time.Since(start))
		_, _ = w.Write(frags.BTF)
		_, _ = w.Write(frags.Tail)
	default:
		width, height, err := p.snapshot(r.Context(), v)
		if err != nil {
			// The graphical entry page is an enhancement over the adapted
			// document, not a prerequisite.
			_ = p.degrade(r.Context(), "snapshot", err)
			servePage(w, main)
			return
		}
		// Buffered serving completes everything at once: the whole page
		// is the above-the-fold content.
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		_, _ = w.Write(p.entryOverlay(v.bundle, width, height, -1).Page())
		p.metrics.atfBuffered.ObserveDuration(time.Since(start))
	}
}

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
func (p *Proxy) snapshotScale() float64 {
	if s := p.cfg.Spec.Snapshot.Scale; s > 0 {
		return s
	}
	return 1
}

// sharedSnapshotTTL is how long the cross-session snapshot cache entry
// lives; zero when the spec's snapshot is per-session or uncacheable.
func (p *Proxy) sharedSnapshotTTL() time.Duration {
	if !p.cfg.Spec.Snapshot.Shared {
		return 0
	}
	return time.Duration(p.cfg.Spec.Snapshot.CacheTTLSeconds) * time.Second
}

// renderSnapshot renders a Bundle's main page into the entry snapshot,
// layout, raster and encode each recorded as a span when ctx carries a
// trace. The geometry rides in the entry's MIME suffix so it survives
// the shared cache, the durable tier and a peer hop.
func (p *Proxy) renderSnapshot(ctx context.Context, b *Bundle) (cache.Entry, error) {
	p.nSnapshotRenders.Add(1)
	p.metrics.snapshotRenders.Inc()
	sp := obs.StartSpan(ctx, "layout")
	res := layoutForDoc(tidyDoc(string(b.pages[mainPage].data)), p.width, b.sheets.Swap(nil))
	sp.End()
	out, err := progressive.Render(res, progressive.Config{
		Ctx:      ctx,
		Raster:   raster.Options{Images: b.images},
		Fidelity: snapshotFidelity(p.cfg.Spec),
		Scale:    p.snapshotScale(),
	})
	if err != nil {
		return cache.Entry{}, err
	}
	return cache.Entry{Data: out.Data, MIME: fmt.Sprintf("%s;%d,%d", out.MIME, out.Width, out.Height)}, nil
}

// snapshot renders (or fetches from the shared cache) the scaled entry
// snapshot of the view's Bundle, records it as what the session was
// shown, and returns its geometry. Whether the snapshot came from the
// shared cache is annotated on the request trace. A private view's
// Bundle may show what only its user may see, so it takes the route of a
// spec without a shared snapshot: rendered from its own Bundle, kept on
// the view, never read from or written to the cross-session entry.
func (p *Proxy) snapshot(ctx context.Context, v *sessionView) (w, h int, err error) {
	ttl := p.sharedSnapshotTTL()
	if v.private {
		ttl = 0
	}
	// filled is atomic: with stale-while-revalidate the fill can run on a
	// background refresh goroutine while this request inspects it.
	var filled atomic.Bool
	fill := func() (cache.Entry, error) {
		filled.Store(true)
		return p.renderSnapshot(ctx, v.bundle)
	}

	var entry cache.Entry
	cached := false
	if ttl > 0 {
		var stale bool
		if p.cfg.ServeStale {
			// Stale-while-revalidate: an expired shared snapshot is served
			// immediately while a background goroutine re-renders it.
			entry, stale, err = p.cfg.Cache.GetOrFillStale(p.snapKey, ttl, DefaultStaleFor, fill)
		} else {
			entry, err = p.cfg.Cache.GetOrFill(p.snapKey, ttl, fill)
		}
		// Served from the shared cache (directly, stale, or by another
		// goroutine's single-flight fill) — the amortization §3.3 is about.
		cached = stale || (err == nil && !filled.Load())
		outcome := "miss"
		if stale {
			outcome = "stale"
		} else if cached {
			outcome = "hit"
		}
		if cached {
			p.nSnapshotHits.Add(1)
			p.metrics.snapshotHits.Inc()
		}
		obs.TraceFrom(ctx).Annotate("cache", outcome)
	} else {
		entry, err = fill()
		obs.TraceFrom(ctx).Annotate("cache", "bypass")
	}
	if err != nil {
		return 0, 0, err
	}
	if cur := v.snapshot.Load(); cur == nil || !sameBytes(cur.data, entry.Data) {
		// Bytes the view already holds keep the artifact (and ETag)
		// derived from them.
		v.snapshot.Store(newArtifact(p.snapName, entry.Data))
	}
	// Geometry rides in the MIME suffix; parse it back out.
	w, h = parseGeometry(entry.MIME)
	return w, h, nil
}

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

func (p *Proxy) handleSubpage(w http.ResponseWriter, r *http.Request, rawName string) {
	sess, ok := p.ensureSession(w, r)
	if !ok {
		return
	}
	name, err := url.PathUnescape(rawName)
	if err != nil || name == "" {
		http.NotFound(w, r)
		return
	}
	v, err := p.ensureAdaptation(r.Context(), sess, false)
	if err != nil {
		p.fetchError(w, r, err)
		return
	}
	page := v.bundle.pages[attr.SubpageFileName(name)]
	if _, ok := v.bundle.subpages[name]; !ok || page == nil {
		http.NotFound(w, r)
		return
	}
	// The pluggable engine hook (§1: "multiple rendering engines to
	// produce HTML, static images, PDF, plain text ... at any point in
	// the rendering process"): ?format selects an alternate engine.
	if format := queryParam(r, "format"); format != "" && format != "html" {
		engine, err := render.Lookup(format)
		if err != nil {
			http.Error(w, "unknown format: "+format, http.StatusBadRequest)
			return
		}
		out, err := engine.Render(tidyDoc(string(page.data)), layout.Viewport{Width: p.width})
		if err != nil {
			p.serverError(w, r, http.StatusInternalServerError, "render failed", err)
			return
		}
		w.Header().Set("Content-Type", engine.MIME())
		_, _ = w.Write(out)
		return
	}
	servePage(w, page)
}

func (p *Proxy) handleAsset(w http.ResponseWriter, r *http.Request, rawName string) {
	sess, ok := p.ensureSession(w, r)
	if !ok {
		return
	}
	name, err := url.PathUnescape(rawName)
	if err != nil || name == "" || strings.Contains(name, "/") || strings.Contains(name, "..") {
		http.NotFound(w, r)
		return
	}
	p.mu.Lock()
	v := p.adapted[sess.ID]
	p.mu.Unlock()
	var a *artifact
	if v != nil {
		a = p.sessionAsset(r, v, name)
	}
	if a == nil {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", a.ctype)
	// Let the device cache images too: the shared snapshot for its
	// configured TTL, per-user renders briefly.
	if name == p.snapName {
		w.Header().Set("Cache-Control", p.snapCacheControl)
	} else {
		w.Header().Set("Cache-Control", "private, max-age=300")
	}
	// Conditional requests save the image bytes on revisits — the
	// dominant cost on 3G links.
	w.Header().Set("ETag", a.etag)
	if etagMatches(r.Header.Get("If-None-Match"), a.etag) {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	writeBody(w, a)
}

// etagMatches evaluates an If-None-Match header against the current
// entity tag (RFC 9110 §13.1.2): a comma-separated list compared weakly,
// so a W/ prefix is ignored, or "*" for any current representation.
func etagMatches(header, etag string) bool {
	for header != "" {
		var cand string
		cand, header, _ = strings.Cut(header, ",")
		cand = strings.TrimSpace(cand)
		if cand == "*" || strings.TrimPrefix(cand, "W/") == etag {
			return true
		}
	}
	return false
}

func (p *Proxy) handleAJAX(w http.ResponseWriter, r *http.Request) {
	sess, ok := p.ensureSession(w, r)
	if !ok {
		return
	}
	id, err := strconv.Atoi(r.URL.Query().Get("action"))
	if err != nil {
		http.Error(w, "bad action", http.StatusBadRequest)
		return
	}
	f := fetch.New(sess, p.cfg.FetchOptions...)
	data, err := p.dispatcher.DispatchContext(r.Context(), f, id, r.URL.Query().Get("p"))
	if err != nil {
		p.serverError(w, r, http.StatusBadGateway, "action failed", err)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	_, _ = w.Write(data)
}

// handleAuth is the lightweight HTTP authentication page (§3.3): a
// minimal form whose credentials the proxy stores and replays on the
// client's behalf.
func (p *Proxy) handleAuth(w http.ResponseWriter, r *http.Request) {
	sess, ok := p.ensureSession(w, r)
	if !ok {
		return
	}
	back := p.authReturn(r.URL.Query().Get("back"))
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
// under this proxy's mount, or the entry page. A scheme-relative
// "//host", a "/\host" or a control character a browser strips (which
// turns "/<tab>/host" into "//host") would leave the site right after the
// user typed origin credentials, so none of them is honoured.
func (p *Proxy) authReturn(back string) string {
	rest, ok := strings.CutPrefix(back, p.prefix+"/")
	if !ok || strings.HasPrefix(rest, "/") || strings.HasPrefix(rest, `\`) ||
		strings.IndexFunc(back, unicode.IsControl) >= 0 {
		return p.prefix + "/"
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
		p.serverError(w, r, http.StatusInternalServerError, "logout failed", err)
		return
	}
	p.attach(sess.ID, nil) // next visit re-fetches logged-out content
	http.Redirect(w, r, p.prefix+"/", http.StatusSeeOther)
}

// fetchError maps adaptation failures: auth challenges redirect to the
// lightweight auth page, admission sheds become 503 + Retry-After, and
// everything else is a gateway error (§3.2 "any error handling should
// the page be unavailable") with a generic body — the detail lands on
// the trace and in the error log, never in the response.
func (p *Proxy) fetchError(w http.ResponseWriter, r *http.Request, err error) {
	var authErr *fetch.AuthRequiredError
	if errors.As(err, &authErr) {
		u, _ := url.Parse(authErr.URL)
		host := ""
		if u != nil {
			host = u.Host
		}
		http.Redirect(w, r,
			p.prefix+"/auth?back="+url.QueryEscape(r.URL.RequestURI())+"&host="+url.QueryEscape(host),
			http.StatusSeeOther)
		return
	}
	if shed, ok := admission.IsShed(err); ok {
		p.shedError(w, r, shed, err)
		return
	}
	p.serverError(w, r, http.StatusBadGateway, "origin unavailable", err)
}

func originHost(origin string) string {
	u, err := url.Parse(origin)
	if err != nil {
		return ""
	}
	return u.Host
}
