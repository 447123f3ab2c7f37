package main

import (
	"bytes"
	"context"
	"fmt"
	"image/jpeg"
	"net"
	"net/http"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"msite/internal/attr"
	"msite/internal/device"
	"msite/internal/html"
	"msite/internal/netsim"
)

// link carries one device's requests to the SUT.
type link interface {
	// get issues one GET. body is valid until the next call.
	get(path, cookie, ifNoneMatch string) (status int, hdr http.Header, body []byte, err error)
	// wire is the response bytes received so far, as read off the socket
	// (status lines, headers, bodies and chunk framing); 0 without one.
	wire() int64
	close()
}

// countingConn counts what the device reads off its connection.
type countingConn struct {
	net.Conn
	n *atomic.Int64
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.n.Add(int64(n))
	return n, err
}

// socketLink is one persistent connection to the SUT process.
type socketLink struct {
	base   string
	client *http.Client
	buf    bytes.Buffer
	n      atomic.Int64
}

func newSocketLink(addr string) *socketLink {
	l := &socketLink{base: "http://" + addr}
	dialer := &net.Dialer{Timeout: 10 * time.Second}
	l.client = &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			DialContext: func(ctx context.Context, network, address string) (net.Conn, error) {
				conn, err := dialer.DialContext(ctx, network, address)
				if err != nil {
					return nil, err
				}
				return countingConn{Conn: conn, n: &l.n}, nil
			},
			MaxConnsPerHost:    1,
			DisableCompression: true,
		},
	}
	return l
}

func (l *socketLink) get(path, cookie, ifNoneMatch string) (int, http.Header, []byte, error) {
	req, err := http.NewRequest(http.MethodGet, l.base+path, nil)
	if err != nil {
		return 0, nil, nil, err
	}
	setDeviceHeaders(req, cookie, ifNoneMatch)
	resp, err := l.client.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	l.buf.Reset()
	_, err = l.buf.ReadFrom(resp.Body)
	_ = resp.Body.Close()
	return resp.StatusCode, resp.Header, l.buf.Bytes(), err
}

func (l *socketLink) wire() int64 { return l.n.Load() }
func (l *socketLink) close()      { l.client.CloseIdleConnections() }

// handlerLink calls the Framework's handler directly: the traced run has
// no sockets between the device and the proxy.
type handlerLink struct {
	h   http.Handler
	rec bodyRecorder
	// ttfb is how long the last request took to its first byte.
	ttfb time.Duration
}

func (l *handlerLink) get(path, cookie, ifNoneMatch string) (int, http.Header, []byte, error) {
	req, err := http.NewRequest(http.MethodGet, "http://sut"+path, nil)
	if err != nil {
		return 0, nil, nil, err
	}
	req.RemoteAddr = "127.0.0.1:1"
	setDeviceHeaders(req, cookie, ifNoneMatch)
	l.rec = bodyRecorder{header: make(http.Header), body: l.rec.body[:0]}
	start := time.Now()
	l.h.ServeHTTP(&l.rec, req)
	if l.rec.status == 0 {
		l.rec.WriteHeader(http.StatusOK)
	}
	l.ttfb = l.rec.first.Sub(start)
	return l.rec.status, l.rec.header, l.rec.body, nil
}

func (l *handlerLink) wire() int64 { return 0 }
func (l *handlerLink) close()      {}

func setDeviceHeaders(req *http.Request, cookie, ifNoneMatch string) {
	req.Header.Set("User-Agent", device.IPhone4.UserAgent)
	if cookie != "" {
		req.Header.Set("Cookie", cookie)
	}
	if ifNoneMatch != "" {
		req.Header.Set("If-None-Match", ifNoneMatch)
	}
}

// phone is one device: its session cookie and, like a browser, the
// validators of what it has already downloaded.
type phone struct {
	cookie string
	etags  map[string]string
}

func newPhone() *phone { return &phone{etags: make(map[string]string)} }

// sessionID is the value of the session cookie.
func (p *phone) sessionID() string {
	_, id, _ := strings.Cut(p.cookie, "=")
	return id
}

// site is what a correct response looks like for this run's origin.
type site struct {
	subpages      []string          // one overlay area each
	markers       map[string]string // subpage name → text that must appear
	snapshotWidth int
	// complexity is the client-side cost drivers of each HTML document,
	// learned from the verified view of set-up and read-only afterwards.
	complexity map[string]device.PageComplexity
}

// view is what one phone does to see a page, and is the timed unit.
type view struct {
	dur      time.Duration
	wire     int64
	requests int
	// delivered sums the complexity of the HTML documents received with
	// a 200, for the client half of the 3G estimate.
	delivered device.PageComplexity
	err       error
}

// model3G is Table 1's client side for this view on an iPhone 4 over 3G:
// transfer time of what was received plus the device's parse and render
// time for the delivered HTML.
func (v view) model3G() time.Duration {
	c := v.delivered
	c.Bytes = int(v.wire)
	c.Requests = v.requests
	return netsim.ThreeG.TransferTime(int(v.wire), v.requests) + device.IPhone4.ClientCPUTime(c)
}

// browser drives views over one link; tr is nil unless the run is traced.
type browser struct {
	link link
	site *site
	tr   *tracer
}

// attrValues returns, for every occurrence of prefix in body, the text
// from the end of prefix to the next double quote.
func attrValues(body []byte, prefix string) []string {
	var out []string
	for {
		i := bytes.Index(body, []byte(prefix))
		if i < 0 {
			return out
		}
		body = body[i+len(prefix):]
		j := bytes.IndexByte(body, '"')
		if j < 0 {
			return out
		}
		out = append(out, string(body[:j]))
		body = body[j:]
	}
}

func complexityOf(body []byte) device.PageComplexity {
	c := attr.ComplexityOf(html.Tidy(string(body)), 0, 0)
	return device.PageComplexity{Elements: c.Elements, Scripts: c.Scripts, Images: c.Images, StyleRules: c.StyleRules}
}

func addComplexity(a, b device.PageComplexity) device.PageComplexity {
	a.Elements += b.Elements
	a.Scripts += b.Scripts
	a.Images += b.Images
	a.StyleRules += b.StyleRules
	return a
}

// fetch issues one request for p, keeps its cookie and validator cache up
// to date, and rejects anything but a 200 or a justified 304.
func (b *browser) fetch(p *phone, v *view, path, spanName string, root, viewID int) (int, []byte, error) {
	id := b.tr.begin(spanName, root, viewID)
	status, hdr, body, err := b.link.get(path, p.cookie, p.etags[path])
	rename := ""
	if spanName == "proxy.asset" {
		rename = fmt.Sprintf("proxy.asset_%d", status)
	}
	b.tr.end(id, rename)
	if hl, ok := b.link.(*handlerLink); ok && spanName == "proxy.entry_cold" {
		b.tr.note("proxy.entry_ttfb", float64(hl.ttfb)/1e6)
	}
	v.requests++
	if err != nil {
		return 0, nil, fmt.Errorf("GET %s: %w", path, err)
	}
	for _, sc := range hdr.Values("Set-Cookie") {
		p.cookie, _, _ = strings.Cut(sc, ";")
	}
	switch status {
	case http.StatusOK:
		if etag := hdr.Get("ETag"); etag != "" {
			p.etags[path] = etag
		}
	case http.StatusNotModified:
		if p.etags[path] == "" {
			return 0, nil, fmt.Errorf("GET %s: 304 to an unconditional request", path)
		}
	default:
		return 0, nil, fmt.Errorf("GET %s: status %d", path, status)
	}
	return status, body, nil
}

// html accounts a delivered HTML document to the view.
func (b *browser) html(v *view, path string, body []byte, learn bool) {
	c, ok := b.site.complexity[path]
	if !ok {
		c = complexityOf(body)
		if learn {
			b.site.complexity[path] = c
		}
	}
	v.delivered = addComplexity(v.delivered, c)
}

// view loads the entry page and its snapshot, then opens subs and every
// proxy-served asset they reference, verifying each response. entrySpan
// names the entry request in a traced run. learn records document
// complexities into the site (set-up only, single-threaded).
func (b *browser) view(p *phone, subs []string, entrySpan string, viewID int, learn bool) view {
	var v view
	root := b.tr.begin("view", -1, viewID)
	wire0 := b.link.wire()
	start := time.Now()
	v.err = b.load(p, &v, subs, entrySpan, root, viewID, learn)
	v.dur = time.Since(start)
	v.wire = b.link.wire() - wire0
	b.tr.end(root, "")
	return v
}

func (b *browser) load(p *phone, v *view, subs []string, entrySpan string, root, viewID int, learn bool) error {
	_, body, err := b.fetch(p, v, "/", entrySpan, root, viewID)
	if err != nil {
		return err
	}
	if p.cookie == "" {
		return fmt.Errorf("entry page set no session cookie")
	}
	b.html(v, "/", body, learn)
	imgs := attrValues(body, `<img src="`)
	if len(imgs) != 1 || !strings.HasPrefix(imgs[0], "/asset/snapshot") {
		return fmt.Errorf("overlay references snapshot %q", imgs)
	}
	areas := attrValues(body, `href="/subpage/`)
	sort.Strings(areas)
	if strings.Join(areas, ",") != strings.Join(b.site.subpages, ",") {
		return fmt.Errorf("overlay areas %v, want one per subpage %v", areas, b.site.subpages)
	}

	status, body, err := b.fetch(p, v, imgs[0], "proxy.asset", root, viewID)
	if err != nil {
		return err
	}
	if status == http.StatusOK {
		cfg, err := jpeg.DecodeConfig(bytes.NewReader(body))
		if err != nil {
			return fmt.Errorf("snapshot is not a JPEG: %w", err)
		}
		if cfg.Width != b.site.snapshotWidth {
			return fmt.Errorf("snapshot is %d px wide, want %d", cfg.Width, b.site.snapshotWidth)
		}
	}

	for _, name := range subs {
		path := "/subpage/" + name
		_, body, err := b.fetch(p, v, path, "proxy.subpage", root, viewID)
		if err != nil {
			return err
		}
		if !bytes.Contains(body, []byte(b.site.markers[name])) {
			return fmt.Errorf("subpage %s lacks its origin marker %q", name, b.site.markers[name])
		}
		b.html(v, path, body, learn)
		// Assets on the origin's own host are not the proxy's traffic.
		for _, asset := range attrValues(body, `src="/asset/`) {
			if _, _, err := b.fetch(p, v, "/asset/"+asset, "proxy.asset", root, viewID); err != nil {
				return err
			}
		}
	}
	return nil
}
