// Package fetch downloads origin pages on behalf of a mobile client's
// session (§3.2): the per-session cookie jar authenticates the proxy as
// that user, stored HTTP credentials are replayed on demand, and
// subresources (images, scripts, stylesheets) are discovered and
// downloaded so pre-rendering sees the same bytes the client would.
package fetch

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"msite/internal/dom"
	"msite/internal/html"
	"msite/internal/obs"
	"msite/internal/session"
)

// maxBodyBytes bounds one fetched resource (16 MiB).
const maxBodyBytes = 16 << 20

// AuthRequiredError reports an origin 401; the proxy redirects the
// client to its lightweight authentication page (§3.3).
type AuthRequiredError struct {
	URL   string
	Realm string
}

// Error implements error.
func (e *AuthRequiredError) Error() string {
	return fmt.Sprintf("fetch: %s requires HTTP authentication (realm %q)", e.URL, e.Realm)
}

// StatusError reports a non-success origin response.
type StatusError struct {
	URL    string
	Status int
}

// Error implements error.
func (e *StatusError) Error() string {
	return fmt.Sprintf("fetch: %s returned status %d", e.URL, e.Status)
}

// Page is one fetched origin page.
type Page struct {
	// URL is the final URL after redirects.
	URL string
	// Body is the raw response body.
	Body []byte
	// Status is the HTTP status code.
	Status int
}

// Doc tidies and parses the page body into a document.
func (p *Page) Doc() *dom.Node {
	return html.Tidy(string(p.Body))
}

// Fetcher downloads origin resources for one session. All methods are
// safe for concurrent use; FetchAll runs many downloads at once over
// one Fetcher.
type Fetcher struct {
	client    *http.Client
	sess      *session.Session
	userAgent string
	obs       *obs.Registry

	// retries is the extra attempts allowed for idempotent GETs on
	// retryable failures (see Error.Temporary) to a host that is not
	// failing, and backoffBase/backoffMax bound the jittered exponential
	// backoff between them.
	retries     int
	backoffBase time.Duration
	backoffMax  time.Duration
}

// sessionJar presents the session's *current* cookie jar to the HTTP
// client: ClearCookies swaps the jar mid-session, and concurrent
// FetchAll workers must observe the swap without racing on client.Jar.
type sessionJar struct{ sess *session.Session }

// SetCookies implements http.CookieJar.
func (j sessionJar) SetCookies(u *url.URL, cookies []*http.Cookie) {
	j.sess.CookieJar().SetCookies(u, cookies)
}

// Cookies implements http.CookieJar.
func (j sessionJar) Cookies(u *url.URL) []*http.Cookie {
	return j.sess.CookieJar().Cookies(u)
}

// Option configures a Fetcher.
type Option func(*Fetcher)

// WithUserAgent sets the User-Agent presented to the origin.
func WithUserAgent(ua string) Option {
	return func(f *Fetcher) { f.userAgent = ua }
}

// WithTimeout bounds each request.
func WithTimeout(d time.Duration) Option {
	return func(f *Fetcher) { f.client.Timeout = d }
}

// WithObs records per-request fetch metrics on reg: the
// msite_fetch_seconds latency histogram, msite_fetch_requests_total
// counters labeled by outcome (ok, error, auth, or the HTTP status),
// and the msite_fetch_concurrent in-flight gauge FetchAll maintains.
func WithObs(reg *obs.Registry) Option {
	return func(f *Fetcher) { f.obs = reg }
}

// WithRetries allows n extra attempts for idempotent GETs whose failure
// class is retryable (timeouts, refusals, resets, DNS, 5xx/429), except
// to a failing host (see failing). n <= 0 disables retries (the default).
// POSTs are never retried.
func WithRetries(n int) Option {
	return func(f *Fetcher) {
		if n > 0 {
			f.retries = n
		}
	}
}

// WithBackoff sets the retry backoff schedule: the delay before retry k
// is base·2^(k-1) capped at max, with full jitter (a uniform draw from
// the half-to-full range) so a fleet of waiting fetches does not
// re-arrive in lockstep. Defaults: 100 ms base, 2 s cap.
func WithBackoff(base, max time.Duration) Option {
	return func(f *Fetcher) {
		if base > 0 {
			f.backoffBase = base
		}
		if max > 0 {
			f.backoffMax = max
		}
	}
}

// record reports one origin request's outcome and latency.
func (f *Fetcher) record(start time.Time, err error) {
	if f.obs == nil {
		return
	}
	outcome := "ok"
	if err != nil {
		outcome = errorOutcome(err)
	}
	f.obs.Counter("msite_fetch_requests_total", "outcome", outcome).Inc()
	f.obs.Histogram("msite_fetch_seconds").ObserveDuration(time.Since(start))
}

// errorOutcome is the outcome label of a failed origin request. Its
// errors.As targets escape, so a successful request must not reach it.
func errorOutcome(err error) string {
	var authErr *AuthRequiredError
	if errors.As(err, &authErr) {
		return "auth"
	}
	var fetchErr *Error
	if errors.As(err, &fetchErr) {
		if fetchErr.Kind == KindStatus {
			return "status_" + strconv.Itoa(fetchErr.Status)
		}
		return string(fetchErr.Kind)
	}
	var statusErr *StatusError
	if errors.As(err, &statusErr) {
		return "status_" + strconv.Itoa(statusErr.Status)
	}
	return "error"
}

// transport carries every Fetcher's requests: http.DefaultTransport with
// room for a whole FetchAll batch of idle connections to one host, where
// the default keeps two, so a build's batch reuses the connections the
// last one opened instead of dialing most of them anew. Cookie jars stay
// with each Fetcher's client; sessions share connections only, as they
// did on the default transport.
var transport = func() *http.Transport {
	t := http.DefaultTransport.(*http.Transport).Clone()
	t.MaxIdleConnsPerHost = DefaultWorkers
	return t
}()

// maxFailingHosts caps failing. Past it a failing host is not remembered
// and keeps its retries.
const maxFailingHosts = 256

// failing holds the origin hosts whose last GET failed on every attempt.
// Each gets one attempt and no retries until it answers, so retries do
// not multiply the load an outage puts on the origin. Like transport, it
// is shared by every Fetcher: a host's health outlives any one session.
var failing hostSet

// hostSet is a set of at most maxFailingHosts hosts, safe for concurrent
// use. n mirrors len(hosts), so forget, which every answer calls, costs
// one atomic load while no host is failing.
type hostSet struct {
	mu    sync.Mutex
	hosts map[string]struct{}
	n     atomic.Int32
}

func (s *hostSet) has(host string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.hosts[host]
	return ok
}

func (s *hostSet) add(host string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.hosts) >= maxFailingHosts {
		return
	}
	if s.hosts == nil {
		s.hosts = make(map[string]struct{})
	}
	s.hosts[host] = struct{}{}
	s.n.Store(int32(len(s.hosts)))
}

func (s *hostSet) forget(host string) {
	if s.n.Load() == 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.hosts, host)
	s.n.Store(int32(len(s.hosts)))
}

// New returns a Fetcher bound to a session's cookie jar. sess may be nil
// for anonymous (shared-cache) fetches.
func New(sess *session.Session, opts ...Option) *Fetcher {
	client := &http.Client{Transport: transport, Timeout: 30 * time.Second}
	if sess != nil {
		client.Jar = sessionJar{sess}
	}
	f := &Fetcher{
		client:      client,
		sess:        sess,
		userAgent:   "m.Site-proxy/1.0",
		backoffBase: 100 * time.Millisecond,
		backoffMax:  2 * time.Second,
	}
	for _, opt := range opts {
		opt(f)
	}
	return f
}

// Get fetches one resource, retrying retryable failures up to the
// configured budget (WithRetries) with jittered exponential backoff.
func (f *Fetcher) Get(rawURL string) (*Page, error) {
	return f.GetContext(context.Background(), rawURL)
}

// GetContext is Get bound to a caller deadline/cancellation: each
// attempt is additionally bounded by the fetcher's per-request timeout,
// and backoff sleeps abort when ctx does.
func (f *Fetcher) GetContext(ctx context.Context, rawURL string) (*Page, error) {
	start := time.Now()
	page, err := f.getRetry(ctx, rawURL)
	f.record(start, err)
	return page, err
}

// getRetry runs the bounded retry loop around single attempts. Only
// failures classified retryable (Error.Temporary) consume the budget, and
// a failing host gets none: the host of a GET that fails on every attempt
// joins failing, so the next GET to it stops after one.
func (f *Fetcher) getRetry(ctx context.Context, rawURL string) (*Page, error) {
	for attempts := 1; ; attempts++ {
		page, err := f.attempt(ctx, rawURL)
		if err == nil {
			return page, nil
		}
		var fe *Error // declared past the nil check: errors.As moves it to the heap
		if !errors.As(err, &fe) {
			return page, err
		}
		fe.Attempts = attempts
		if !fe.Temporary() {
			return page, err
		}
		if attempts > f.retries || failing.has(fe.Origin) {
			failing.add(fe.Origin)
			return page, err
		}
		if f.obs != nil {
			f.obs.Counter("msite_fetch_retries_total").Inc()
		}
		if sleepCtx(ctx, f.backoff(attempts)) != nil {
			return page, err
		}
	}
}

// backoff returns the jittered delay before the retry following failed
// attempt n (1-based): base·2^(n-1) capped at max, drawn uniformly from
// [d/2, d].
func (f *Fetcher) backoff(n int) time.Duration {
	d := f.backoffBase
	for i := 1; i < n && d < f.backoffMax; i++ {
		d *= 2
	}
	if d > f.backoffMax {
		d = f.backoffMax
	}
	if d <= 0 {
		return 0
	}
	half := int64(d / 2)
	return time.Duration(half + rand.Int63n(half+1))
}

// sleepCtx sleeps for d or until ctx is done.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// attempt makes one GET, with the session's stored credentials for the
// host.
func (f *Fetcher) attempt(ctx context.Context, rawURL string) (*Page, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, rawURL, nil)
	if err != nil {
		return nil, fmt.Errorf("fetch: building request for %s: %w", rawURL, err)
	}
	if f.sess != nil {
		if creds, ok := f.sess.Auth(req.URL.Host); ok {
			req.SetBasicAuth(creds.User, creds.Pass)
		}
	}
	return f.send(rawURL, req)
}

// PostForm submits a form to the origin (used to marshal login
// interactions through the proxy).
func (f *Fetcher) PostForm(rawURL string, form url.Values) (*Page, error) {
	return f.PostFormContext(context.Background(), rawURL, form)
}

// PostFormContext is PostForm bound to a caller deadline/cancellation.
// Form submission is not idempotent, so it is never retried.
func (f *Fetcher) PostFormContext(ctx context.Context, rawURL string, form url.Values) (*Page, error) {
	start := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, rawURL, strings.NewReader(form.Encode()))
	if err != nil {
		return nil, fmt.Errorf("fetch: building POST for %s: %w", rawURL, err)
	}
	req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
	page, err := f.send(rawURL, req)
	f.record(start, err)
	return page, err
}

// send makes one request and reads the answer. A 401 to a GET is an
// *AuthRequiredError; any other status outside 2xx is a KindStatus error
// beside the page. Every outcome but a retryable failure means the host
// answered, so it leaves failing.
func (f *Fetcher) send(rawURL string, req *http.Request) (*Page, error) {
	req.Header.Set("User-Agent", f.userAgent)
	host := req.URL.Host
	resp, err := f.client.Do(req)
	if err != nil {
		return nil, transportError(rawURL, host, err)
	}
	defer func() { _ = resp.Body.Close() }()
	var page *Page
	if resp.StatusCode == http.StatusUnauthorized && req.Method == http.MethodGet {
		err = &AuthRequiredError{URL: rawURL, Realm: parseRealm(resp.Header.Get("WWW-Authenticate"))}
	} else if body, readErr := readBody(rawURL, host, resp.Body, resp.ContentLength); readErr != nil {
		err = readErr
	} else {
		page = &Page{URL: resp.Request.URL.String(), Body: body, Status: resp.StatusCode}
		if resp.StatusCode < 200 || resp.StatusCode >= 300 {
			err = statusError(rawURL, host, resp.StatusCode)
		}
	}
	if err == nil || !Retryable(err) { // Retryable allocates: skip it on success
		failing.forget(host)
	}
	return page, err
}

// readBody reads a response body of at most maxBodyBytes, whose length is
// size when that is known (-1 when not). A failed read is a KindReset
// failure of the origin; a longer body is a KindTooLarge error, never a
// page cut short, and not retried, since the origin answered.
func readBody(rawURL, host string, r io.Reader, size int64) ([]byte, error) {
	body, err := readAll(io.LimitReader(r, maxBodyBytes+1), size)
	if err != nil {
		return nil, &Error{
			URL: rawURL, Origin: host, Kind: KindReset, Attempts: 1,
			Err: fmt.Errorf("fetch: reading %s: %w", rawURL, err),
		}
	}
	if len(body) > maxBodyBytes {
		return nil, &Error{
			URL: rawURL, Origin: host, Kind: KindTooLarge, Attempts: 1,
			Err: fmt.Errorf("body exceeds %d bytes", maxBodyBytes),
		}
	}
	return body, nil
}

// readAll reads r, which ends within maxBodyBytes+1 bytes, to EOF: into
// one buffer of size bytes and a spare when size is known (≥ 0).
// Otherwise — a chunked body — it reads into chunks, each as large as all
// those before it, and joins them once at EOF: about twice the body in
// all, where io.ReadAll copies it into a buffer a quarter larger at every
// step. A full chunk is followed by a one-byte read, so a body that ends
// with a chunk does not pay for an empty one.
func readAll(r io.Reader, size int64) ([]byte, error) {
	n := 512
	if size >= 0 {
		n = int(min(size, maxBodyBytes)) + 1
	}
	var chunks [][]byte
	var next [1]byte
	buf, total := make([]byte, 0, n), 0
	for {
		if len(buf) == cap(buf) {
			if _, err := io.ReadFull(r, next[:]); err == io.EOF {
				break
			} else if err != nil {
				return nil, err
			}
			chunks = append(chunks, buf)
			buf = append(make([]byte, 0, min(total, maxBodyBytes+1-total)), next[0])
			total++
		}
		m, err := r.Read(buf[len(buf):cap(buf)])
		buf, total = buf[:len(buf)+m], total+m
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
	}
	if chunks == nil {
		return buf, nil
	}
	body := make([]byte, 0, total)
	for _, c := range chunks {
		body = append(body, c...)
	}
	return append(body, buf...), nil
}

func parseRealm(header string) string {
	const marker = `realm="`
	i := strings.Index(header, marker)
	if i < 0 {
		return ""
	}
	rest := header[i+len(marker):]
	j := strings.IndexByte(rest, '"')
	if j < 0 {
		return rest
	}
	return rest[:j]
}

// Subresources lists the absolute URLs of the images, external scripts,
// and stylesheets a document references.
func Subresources(doc *dom.Node, base string) []string {
	baseURL, err := url.Parse(base)
	if err != nil {
		baseURL = nil
	}
	var out []string
	seen := make(map[string]bool)
	add := func(ref string) {
		if ref == "" || strings.HasPrefix(ref, "data:") ||
			strings.HasPrefix(ref, "javascript:") || strings.HasPrefix(ref, "#") {
			return
		}
		abs := ref
		if baseURL != nil {
			if u, err := baseURL.Parse(ref); err == nil {
				abs = u.String()
			}
		}
		if !seen[abs] {
			seen[abs] = true
			out = append(out, abs)
		}
	}
	doc.Walk(func(n *dom.Node) bool {
		if n.Type != dom.ElementNode {
			return true
		}
		switch n.Tag {
		case "img", "iframe", "embed":
			add(n.AttrOr("src", ""))
		case "script":
			add(n.AttrOr("src", ""))
		case "link":
			rel := strings.ToLower(n.AttrOr("rel", ""))
			if strings.Contains(rel, "stylesheet") || strings.Contains(rel, "icon") {
				add(n.AttrOr("href", ""))
			}
		case "input":
			if strings.EqualFold(n.AttrOr("type", ""), "image") {
				add(n.AttrOr("src", ""))
			}
		}
		return true
	})
	return out
}

// PageLoad is the result of fetching a page plus all of its
// subresources — the byte/request accounting Table 1 is built from.
type PageLoad struct {
	Page *Page
	// Resources maps each subresource URL to its bytes (nil on fetch
	// failure: a broken image does not fail the page).
	Resources map[string][]byte
	// TotalBytes is page + all fetched subresources.
	TotalBytes int
	// Requests is 1 + number of subresource fetch attempts.
	Requests int
	// Failures counts subresources that could not be fetched.
	Failures int
}

// GetWithResources fetches a page and everything it references.
func (f *Fetcher) GetWithResources(rawURL string) (*PageLoad, error) {
	page, err := f.Get(rawURL)
	if err != nil {
		return nil, err
	}
	doc := page.Doc()
	refs := Subresources(doc, page.URL)
	load := &PageLoad{
		Page:       page,
		Resources:  make(map[string][]byte, len(refs)),
		TotalBytes: len(page.Body),
		Requests:   1 + len(refs),
	}
	for _, res := range f.FetchAll(refs, 0) {
		if res.Err != nil {
			load.Failures++
			load.Resources[res.URL] = nil
			continue
		}
		load.Resources[res.URL] = res.Page.Body
		load.TotalBytes += len(res.Page.Body)
	}
	return load, nil
}

// InlineStylesheets replaces every <link rel="stylesheet"> in doc with a
// <style> element containing the fetched sheet, so the server-side
// renderer (and every generated subpage) sees the site's real styling
// and the mobile client is spared the extra request. Sheets that fail to
// fetch are left as links. Returns how many sheets were inlined.
func (f *Fetcher) InlineStylesheets(doc *dom.Node, base string) (int, error) {
	return f.InlineStylesheetsContext(context.Background(), doc, base)
}

// InlineStylesheetsContext is InlineStylesheets bound to a caller
// deadline/cancellation (the sheet downloads abort when ctx ends).
func (f *Fetcher) InlineStylesheetsContext(ctx context.Context, doc *dom.Node, base string) (int, error) {
	baseURL, err := url.Parse(base)
	if err != nil {
		return 0, fmt.Errorf("fetch: bad base URL %q: %w", base, err)
	}
	links, sheetURLs := StylesheetLinks(doc, baseURL)
	return InlineStylesheetResults(links, f.FetchAllContext(ctx, sheetURLs, 0)), nil
}

// StylesheetLinks finds doc's <link rel="stylesheet"> elements and the
// absolute URLs of their sheets against base, in document order: the
// discovery half of InlineStylesheets, for a caller that downloads the
// sheets in a batch of its own.
func StylesheetLinks(doc *dom.Node, base *url.URL) (links []*dom.Node, sheetURLs []string) {
	for _, link := range doc.Elements("link") {
		rel := strings.ToLower(link.AttrOr("rel", ""))
		if !strings.Contains(rel, "stylesheet") {
			continue
		}
		href := link.AttrOr("href", "")
		if href == "" {
			continue
		}
		abs, err := base.Parse(href)
		if err != nil {
			continue
		}
		links = append(links, link)
		sheetURLs = append(sheetURLs, abs.String())
	}
	return links, sheetURLs
}

// InlineStylesheetResults replaces each links[i] with a <style> element
// holding the sheet in results[i], serially (dom.Node is not safe for
// concurrent modification). A link whose sheet failed to fetch is kept.
// It returns how many sheets were inlined.
func InlineStylesheetResults(links []*dom.Node, results []Result) int {
	inlined := 0
	for i, res := range results {
		if res.Err != nil {
			continue // degrade: keep the link
		}
		link := links[i]
		style := dom.NewElement("style")
		style.SetAttr("type", "text/css")
		style.SetAttr("data-msite", "inlined-css")
		if media := link.AttrOr("media", ""); media != "" {
			style.SetAttr("media", media)
		}
		style.AppendChild(dom.NewText(string(res.Page.Body)))
		link.ReplaceWith(style)
		inlined++
	}
	return inlined
}

// ErrNoSession is returned by helpers that need a session-bound fetcher.
var ErrNoSession = errors.New("fetch: fetcher has no session")

// Session returns the bound session.
func (f *Fetcher) Session() (*session.Session, error) {
	if f.sess == nil {
		return nil, ErrNoSession
	}
	return f.sess, nil
}
