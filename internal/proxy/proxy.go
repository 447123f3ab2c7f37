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
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"msite/internal/ajax"
	"msite/internal/attr"
	"msite/internal/cache"
	"msite/internal/fetch"
	"msite/internal/obs"
	"msite/internal/quality"
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
	// PersistBundles stores each non-personalized build product (subpage
	// set, generated files, decoded images) in the cache keyed by
	// (site, spec hash, device class, fidelity), so a restarted proxy —
	// whose Cache is backed by a durable tier — reuses the build instead
	// of re-running the pipeline. Off by default; core enables it when a
	// store is configured.
	PersistBundles bool
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
}

// DefaultBundleTTL is a persisted bundle's lifetime. A spec change
// rotates the bundle key, so the TTL only has to cover origin-content
// drift.
const DefaultBundleTTL = time.Hour

// TraceHeader is the response header carrying the request's trace ID;
// the same ID keys the request's /debug/traces entry and its "trace"
// slog attribute, so client reports, traces, and logs correlate.
const TraceHeader = "X-MSite-Trace"

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

// Proxy is the m.Site content adaptation proxy for one origin page: it
// serves the Bundles build makes.
type Proxy struct {
	cfg        Config
	dispatcher *ajax.Dispatcher
	// build holds the inputs every build of this proxy shares.
	build   buildOptions
	width   int
	prefix  string
	obs     *obs.Registry
	metrics *metrics
	logger  *slog.Logger
	// snapName is the asset name of the entry snapshot, snapKey its
	// cross-session cache key and snapCacheControl the Cache-Control its
	// asset goes out with.
	snapName, snapKey, snapCacheControl string
	// overlay is the entry overlay as this proxy builds every one: all of
	// it but the snapshot's geometry, which a render decides.
	overlay attr.Overlay
	// bundleKey is the durable-bundle cache key for this proxy's
	// (site, spec hash, device class, fidelity); empty when
	// PersistBundles is off.
	bundleKey string
	// shared is the decoded form of sharedSrc, the encoded bundle record
	// this proxy last put into or read from the cache. It is a memo, not
	// an authority: loadBundle uses it only while the cache still returns
	// those very bytes, so TTL expiry, Delete and Purge force a rebuild.
	sharedMu  sync.Mutex
	shared    *Bundle
	sharedSrc []byte

	// coalesce collapses concurrent cold adaptations of the same page
	// across sessions into one pipeline run; personalized sessions bypass
	// it.
	coalesce *coalescer[*Bundle]

	mu      sync.Mutex
	adapted map[string]*sessionView // by session ID
	// live counts the sessions attached to each Bundle, so /stats walks
	// distinct bundles rather than every session.
	live     map[*Bundle]int
	inflight map[string]chan struct{}

	// lastParity is the most recent parity report for /debug/parity.
	lastParity atomic.Pointer[quality.Parity]
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

	// own is the snapshot rendered from bundle, with its geometry, when
	// it does not go through the shared cache (a private view, or a spec
	// without a shared snapshot): rendered by the first entry view that
	// needs it and kept for the view's life, which is its Bundle's.
	ownMu sync.Mutex
	own   *cache.Entry
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
	dispatcher, err := ajax.NewDispatcher(cfg.Spec.Actions, cfg.Cache)
	if err != nil {
		return nil, err
	}
	prefix := strings.TrimSuffix(cfg.PathPrefix, "/")
	if prefix != "" && !strings.HasPrefix(prefix, "/") {
		return nil, fmt.Errorf("proxy: path prefix %q must start with /", cfg.PathPrefix)
	}
	opts, err := newBuildOptions(cfg, prefix)
	if err != nil {
		return nil, err
	}
	width := opts.applier.ViewportWidth
	reg := cfg.Obs
	if reg == nil {
		reg = obs.NewRegistry()
	}
	cfg.Sessions.InstrumentObs(reg)
	p := &Proxy{
		cfg:        cfg,
		dispatcher: dispatcher,
		build:      opts,
		width:      width,
		prefix:     prefix,
		obs:        reg,
		metrics:    newMetrics(reg, cfg.Spec.Name),
		logger:     cfg.Logger,
		snapName:   "snapshot" + snapshotFidelity(cfg.Spec).Ext(),
		snapKey:    "snapshot:" + cfg.Spec.Name,
		coalesce:   newCoalescer[*Bundle](),
		adapted:    make(map[string]*sessionView),
		live:       make(map[*Bundle]int),
		inflight:   make(map[string]chan struct{}),
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
	p.snapCacheControl = assetCacheControl
	if ttl := cfg.Spec.Snapshot.CacheTTLSeconds; ttl > 0 {
		p.snapCacheControl = "private, max-age=" + strconv.Itoa(ttl)
	}
	p.overlay = attr.Overlay{
		SnapshotURL: prefix + "/asset/" + p.snapName,
		Scale:       snapshotScale(cfg.Spec),
		Title:       cfg.Spec.Name,
	}
	return p, nil
}

// SiteName returns the spec name identifying this proxy's site.
func (p *Proxy) SiteName() string { return p.cfg.Spec.Name }

// Stats returns a snapshot of the proxy counters. It reads the metric
// handles New resolved — never the proxy mutex — so it is safe to poll at
// any rate.
func (p *Proxy) Stats() Stats {
	m := p.metrics
	var requests uint64
	for i := range m.kinds {
		requests += m.kinds[i].requests.Value()
	}
	return Stats{
		Requests:        requests,
		Adaptations:     m.adaptations.Value(),
		SnapshotRenders: m.snapshotRenders.Value(),
		SnapshotHits:    m.snapshotHits.Value(),
	}
}

// Obs exposes the proxy's metric registry (shared with core when wired
// through it).
func (p *Proxy) Obs() *obs.Registry { return p.obs }

// statusRecorder captures the response status for metrics and logging.
// It forwards ReadFrom, the sendfile fast path io.Copy probes for.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

// WriteHeader implements http.ResponseWriter.
func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

// ReadFrom preserves the underlying writer's io.ReaderFrom fast path
// (sendfile on *http.response); without it io.Copy falls back to the
// buffered loop for every recorder-wrapped response.
func (r *statusRecorder) ReadFrom(src io.Reader) (int64, error) {
	if rf, ok := r.ResponseWriter.(io.ReaderFrom); ok {
		return rf.ReadFrom(src)
	}
	// Copy through the plain Writer; going through r itself would
	// recurse into this method forever.
	return io.Copy(struct{ io.Writer }{r.ResponseWriter}, src)
}

// request is what ServeHTTP allocates for a request besides the copy of
// it that carries the trace: the recorder its handler writes through, the
// trace, which is also its context, and the trace ID header's value.
type request struct {
	rec      statusRecorder
	trace    obs.Trace
	traceHdr [1]string
}

// ServeHTTP implements http.Handler. Every request is counted, traced
// (the trace lands in the obs ring buffer for /debug/traces), timed into
// a per-handler latency histogram, and optionally logged.
func (p *Proxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	path := r.URL.Path
	if p.prefix != "" {
		if !strings.HasPrefix(path, p.prefix) {
			notFound(w)
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
	rq := &request{rec: statusRecorder{ResponseWriter: w, status: http.StatusOK}}
	tr, rec := &rq.trace, &rq.rec
	p.obs.InitTrace(tr, r.Context(), kind.String())
	r = r.WithContext(tr)
	// The trace ID goes back to the client so a slow or failed request
	// can be matched to its /debug/traces entry and log lines.
	rq.traceHdr[0] = tr.ID()
	rec.Header()[traceHeaderKey] = rq.traceHdr[:]

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
		notFound(rec)
	}

	d := tr.End()
	km.latency.ObserveDuration(d)
	if rec.status >= 500 {
		km.errors.Inc()
	}
	p.logRequest(r, tr, kind, rec.status, d)
}

// traceHeaderKey is TraceHeader as net/http canonicalizes it, so setting
// it does not canonicalize it again on every response.
var traceHeaderKey = http.CanonicalHeaderKey(TraceHeader)

// Header values the proxy sets as they are, without the []string a
// Header.Set makes; each has len == cap, so an Add further out copies it.
var (
	htmlType    = []string{"text/html; charset=utf-8"}
	textType    = []string{"text/plain; charset=utf-8"}
	nosniff     = []string{"nosniff"}
	notFoundMsg = []byte("404 page not found\n")
)

// notFound answers as http.NotFound does, byte for byte, but sets its
// headers from shared values and writes a body it does not convert.
func notFound(w http.ResponseWriter) {
	h := w.Header()
	delete(h, "Content-Length")
	h["Content-Type"] = textType
	h["X-Content-Type-Options"] = nosniff
	w.WriteHeader(http.StatusNotFound)
	_, _ = w.Write(notFoundMsg)
}

// serverError answers a failed request with a generic body: the error
// detail goes onto the request trace (and, through it, into the
// structured error log line), never into client-visible bytes.
func serverError(w http.ResponseWriter, r *http.Request, status int, public string, err error) {
	if err != nil {
		obs.TraceFrom(r.Context()).Annotate("error", err.Error())
	}
	http.Error(w, public, status)
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
	// Room for the request's own attributes and a few annotations, so a
	// line builds no slice of its own.
	var buf [12]slog.Attr
	attrs := append(buf[:0],
		slog.String("trace", tr.ID()),
		slog.String("site", p.cfg.Spec.Name),
		slog.String("handler", kind.String()),
		slog.String("path", r.URL.Path),
		slog.Int("status", status),
		slog.Duration("duration", d),
	)
	p.logger.LogAttrs(r.Context(), level, "request", tr.AppendAttrs(attrs)...)
}

// handleStats reports the proxy's work counters for operations and the
// scalability experiments, plus any adaptation notes (objects whose
// selectors matched nothing, failed relocations) the administrator
// should see. The counters are the registry's own series, read through
// Stats; /metrics is the richer surface (histograms, per-handler
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

// ensureSession wraps session issuance with error reporting: a failure
// is a generic 500.
func (p *Proxy) ensureSession(w http.ResponseWriter, r *http.Request) (*session.Session, bool) {
	sess, err := p.cfg.Sessions.Ensure(w, r)
	if err != nil {
		serverError(w, r, http.StatusInternalServerError, "session unavailable", err)
		return nil, false
	}
	obs.TraceFrom(r.Context()).Annotate("session", sess.ID)
	return sess, true
}

// servePage writes one of a Bundle's HTML pages.
func servePage(w http.ResponseWriter, a *artifact) {
	w.Header()["Content-Type"] = a.ctype
	writeBody(w, a)
}

// writeBody sends an artifact's bytes as a 200 of known length: left to
// itself net/http chunks any body that outgrows its 2 KB buffer.
func writeBody(w http.ResponseWriter, a *artifact) {
	w.Header()["Content-Length"] = a.length
	_, _ = w.Write(a.data)
}

// handleEntry serves the entry page (§4.3) on its one path: resolve the
// session, adapt, decide the page — the MAML-style minimal page, the
// adapted main document when the spec has no snapshot or its render
// failed, else the snapshot overlay — and write it in one piece. The
// snapshot renders on this request's own context, so the page never
// references an image its asset handler cannot serve yet.
func (p *Proxy) handleEntry(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	sess, ok := p.ensureSession(w, r)
	if !ok {
		return
	}
	v, err := p.ensureAdaptation(r.Context(), sess, queryParam(r, "refresh") == "1")
	if err != nil {
		p.fetchError(w, r, err)
		return
	}
	main := v.bundle.pages[mainPage]
	switch {
	case p.cfg.Spec.MinimalMarkup:
		// The compact layout-only page, no snapshot work at all. Older
		// persisted bundles predate minimal.html; degrade to the adapted
		// main page if it is missing.
		page := v.bundle.pages[minimalPage]
		if page == nil {
			page = main
		}
		servePage(w, page)
		p.metrics.atfMinimal.ObserveDuration(time.Since(start))
	case !p.cfg.Spec.Snapshot.Enabled:
		servePage(w, main)
	default:
		width, height, err := p.snapshot(r.Context(), v)
		if err != nil {
			// The graphical entry page is an enhancement over the adapted
			// document, not a prerequisite.
			obs.TraceFrom(r.Context()).Annotate("degraded_snapshot", err.Error())
			p.degrade("snapshot")
			servePage(w, main)
			return
		}
		w.Header()["Content-Type"] = htmlType
		_, _ = w.Write(p.entryOverlay(v.bundle, width, height))
	}
}

func (p *Proxy) handleSubpage(w http.ResponseWriter, r *http.Request, rawName string) {
	sess, ok := p.ensureSession(w, r)
	if !ok {
		return
	}
	name, err := url.PathUnescape(rawName)
	if err != nil || name == "" {
		notFound(w)
		return
	}
	v, err := p.ensureAdaptation(r.Context(), sess, false)
	if err != nil {
		p.fetchError(w, r, err)
		return
	}
	page := v.bundle.subpage(name)
	if page == nil {
		notFound(w)
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
		notFound(w)
		return
	}
	p.mu.Lock()
	v := p.adapted[sess.ID]
	p.mu.Unlock()
	// An asset is the snapshot the session was shown, else one of its
	// Bundle's images.
	var a *artifact
	switch {
	case v == nil:
	case name == p.snapName:
		a = v.snapshot.Load()
	default:
		a = v.bundle.assets[name]
	}
	if a == nil {
		notFound(w)
		return
	}
	// Let the device cache images too: the shared snapshot for its
	// configured TTL, per-user renders briefly. Conditional requests save
	// the image bytes on revisits — the dominant cost on 3G links. The
	// keys are as Header.Set canonicalizes them ("Etag").
	h := w.Header()
	h["Content-Type"], h["Cache-Control"], h["Etag"] = a.ctype, a.cacheControl, a.etag
	if etagMatches(r.Header.Get("If-None-Match"), a.etag[0]) {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	writeBody(w, a)
}

// queryParam is the first value of a query parameter of r; a request
// without a query is not parsed for one.
func queryParam(r *http.Request, key string) string {
	if r.URL.RawQuery == "" {
		return ""
	}
	return r.URL.Query().Get(key)
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
		serverError(w, r, http.StatusBadGateway, "action failed", err)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	_, _ = w.Write(data)
}

// fetchError maps adaptation failures: auth challenges redirect to the
// lightweight auth page, and everything else is a gateway error (§3.2
// "any error handling should the page be unavailable") with a generic
// body — the detail lands on the trace and in the error log, never in
// the response.
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
	serverError(w, r, http.StatusBadGateway, "origin unavailable", err)
}
