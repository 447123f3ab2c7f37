package proxy

import (
	"bytes"
	"context"
	"encoding/gob"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"image"
	"image/png"
	"maps"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"msite/internal/attr"
	"msite/internal/cache"
	"msite/internal/css"
	"msite/internal/imaging"
	"msite/internal/layout"
	"msite/internal/obs"
	"msite/internal/spec"
)

// bundleWireVersion guards the gob layout; a decoder seeing a newer
// version discards the bundle and rebuilds. Version 1 records (no
// validator) still decode, with the validator simply absent.
const bundleWireVersion = 2

// viewportWidth resolves a proxy's render width: the override, else the
// spec's, else layout.DefaultViewport's.
func viewportWidth(s *spec.Spec, override int) int {
	switch {
	case override != 0:
		return override
	case s.ViewportWidth != 0:
		return s.ViewportWidth
	}
	return layout.DefaultViewport.Width
}

// bundleKey derives the durable cache key of a build product:
// (site, spec hash, device class, fidelity). The spec hash keys bundles
// to the exact adaptation rules — editing the spec rotates the key, so
// stale bundles age out rather than get served.
func bundleKey(s *spec.Spec, width int) (string, error) {
	blob, err := json.Marshal(s)
	if err != nil {
		return "", fmt.Errorf("proxy: hashing spec: %w", err)
	}
	h := fnv.New64a()
	_, _ = h.Write(blob)
	return fmt.Sprintf("bundle:%s:%016x:w%d:%s",
		s.Name, h.Sum64(), width, snapshotFidelity(s)), nil
}

// BundleKeyForSpec computes the durable bundle key New would derive for
// this spec and viewport override, so a caller holding only the spec
// can find the site's bundle in the shared cache.
func BundleKeyForSpec(s *spec.Spec, override int) (string, error) {
	return bundleKey(s, viewportWidth(s, override))
}

// Bundle is the product of one pipeline run: everything the handlers
// serve, held in memory and never modified once build or
// decodeBundle has returned it (sheets, which is not served, is handed
// on once; overlay only memoises a page built from it). Sessions
// reference a Bundle, they do not copy it: anonymous sessions share the
// proxy's current one, a personalized session (stored HTTP auth,
// marshaled login) holds one built for it alone, which is never shared
// and never persisted. A Bundle belongs to the proxy that built or
// decoded it.
type Bundle struct {
	// pages and assets are the generated HTML documents (main.html,
	// minimal.html, one per subpage) and images, by file name.
	pages, assets map[string]*artifact
	// subpages describe the split-off objects; a subpage's document is
	// its page, so Doc is nil.
	subpages map[string]*attr.Subpage
	// areas is the subpage set in name order: the entry overlay's <area>
	// order, fixed so that a Bundle serves the same entry bytes however
	// it came to be (built or decoded).
	areas []*attr.Subpage
	notes []string
	// images are the decoded subresources downloaded on the client's
	// behalf, reused for the snapshot render.
	images map[string]image.Image
	// sheets holds the stylesheets the build parsed until the first
	// snapshot render of the main page, which carries the same <style>
	// text, takes them; a render usually follows its build at once, the
	// next is a cache TTL away, and a site's parsed sheet is ten times its
	// text in every Bundle alive (each logged-in session holds its own).
	// It is not on the wire; a render that finds none, as every render of
	// a decoded Bundle does, parses for itself.
	sheets atomic.Pointer[css.Sheets]
	// validator is the origin's freshness evidence from this build's
	// entry fetch. It is written and decoded with the bundle; nothing in
	// the proxy reads it yet.
	validator BundleValidator
	// overlay is the entry overlay last built over areas (see
	// Proxy.entryOverlay). Like sheets, it is not on the wire.
	overlay atomic.Pointer[builtOverlay]
}

// builtOverlay is a Bundle's entry overlay for one snapshot geometry and
// fold.
type builtOverlay struct {
	width, height, atf int
	page               attr.OverlayStream
}

// entryOverlay returns b's entry overlay for a snapshot of the given
// geometry, its areas split at atf (see attr.BuildOverlayStream). The
// rest of the page is the proxy's own, so the Bundle keeps the last one
// built and serves it while the geometry and the fold hold. The geometry
// is part of the key, not implied by the Bundle: the shared snapshot may
// have been rendered from another Bundle, and may be re-rendered at
// another height while this one is still served.
func (p *Proxy) entryOverlay(b *Bundle, width, height, atf int) attr.OverlayStream {
	if o := b.overlay.Load(); o != nil && o.width == width && o.height == height && o.atf == atf {
		return o.page
	}
	ov := p.overlay
	ov.Width, ov.Height = width, height
	o := &builtOverlay{width: width, height: height, atf: atf, page: p.build.applier.BuildOverlayStream(ov, b.areas, atf)}
	b.overlay.Store(o)
	return o.page
}

// artifact is one servable body with the headers derived from it.
type artifact struct {
	data  []byte
	ctype string
	etag  string
	// length is len(data) as a Content-Length header spells it.
	length string
}

// newArtifact derives an artifact's content type from its file name and
// its validator from its bytes, once.
func newArtifact(name string, data []byte) *artifact {
	ctype := "application/octet-stream"
	switch {
	case strings.HasSuffix(name, ".html"):
		ctype = "text/html; charset=utf-8"
	case strings.HasSuffix(name, ".png"):
		ctype = "image/png"
	case strings.HasSuffix(name, ".jpg"):
		ctype = "image/jpeg"
	}
	return &artifact{
		data:   data,
		ctype:  ctype,
		etag:   fmt.Sprintf(`"%08x-%d"`, crc32.ChecksumIEEE(data), len(data)),
		length: strconv.Itoa(len(data)),
	}
}

// orderAreas fixes the overlay order of a Bundle's subpages.
func (b *Bundle) orderAreas() {
	b.areas = make([]*attr.Subpage, 0, len(b.subpages))
	for _, sub := range b.subpages {
		b.areas = append(b.areas, sub)
	}
	sort.Slice(b.areas, func(i, j int) bool { return b.areas[i].Name < b.areas[j].Name })
}

// sameBytes reports whether a and b are the same backing bytes, not
// merely equal ones.
func sameBytes(a, b []byte) bool {
	return len(a) == len(b) && len(a) > 0 && &a[0] == &b[0]
}

// Wire directory names — the two artifact sets of a Bundle as fileWire
// spells them — and the two pages every build generates besides the
// subpages.
const (
	pagesDir  = "pages"
	assetsDir = "images"

	mainPage    = "main.html"
	minimalPage = "minimal.html"
)

// bundleWire is the only serialized form of a Bundle. Decoded images
// gob out as PNG and re-materialize on load; a subpage's document
// travels as its page file.
type bundleWire struct {
	Version  int
	Site     string
	Subpages []subpageWire
	Notes    []string
	Files    []fileWire
	Images   []imageWire
	// Validator (version 2+) carries the origin's cache validators from
	// the build's entry fetch. gob leaves it zero when decoding a
	// version-1 record.
	Validator BundleValidator
}

// BundleValidator is the origin-freshness evidence stored with a
// bundle: the entry page's ETag and Last-Modified as fetched, plus when
// the fetch happened.
type BundleValidator struct {
	ETag         string
	LastModified string
	FetchedAt    time.Time
}

// Zero reports whether no validator was captured (pre-v2 bundle, or an
// origin that sends none).
func (v BundleValidator) Zero() bool {
	return v.ETag == "" && v.LastModified == "" && v.FetchedAt.IsZero()
}

type fileWire struct {
	Dir, Name string
	Data      []byte
}

type subpageWire struct {
	Name, Title string
	Parent      string
	Region      attr.Region
	PreRender   bool
	AJAX        bool
	Fidelity    int
	ImageData   []byte
	ImageMIME   string
	PartialCSS  bool
	SearchJS    string
	CacheTTL    time.Duration
	Shared      bool
}

type imageWire struct {
	// Keys are every map key sharing this image (an <img> src is stored
	// under both its written and absolute forms).
	Keys []string
	PNG  []byte
}

// encodeBundle serializes a build product for the durable tier. Every
// map is written in sorted key order, so one Bundle always encodes to
// the same bytes.
func encodeBundle(site string, b *Bundle) ([]byte, error) {
	w := bundleWire{Version: bundleWireVersion, Site: site, Notes: b.notes, Validator: b.validator}
	for _, name := range slices.Sorted(maps.Keys(b.subpages)) {
		sub := b.subpages[name]
		w.Subpages = append(w.Subpages, subpageWire{
			Name:       sub.Name,
			Title:      sub.Title,
			Parent:     sub.Parent,
			Region:     sub.Region,
			PreRender:  sub.PreRender,
			AJAX:       sub.AJAX,
			Fidelity:   int(sub.Fidelity),
			ImageData:  sub.ImageData,
			ImageMIME:  sub.ImageMIME,
			PartialCSS: sub.PartialCSS,
			SearchJS:   sub.SearchJS,
			CacheTTL:   sub.CacheTTL,
			Shared:     sub.Shared,
		})
	}
	for _, name := range slices.Sorted(maps.Keys(b.pages)) {
		w.Files = append(w.Files, fileWire{Dir: pagesDir, Name: name, Data: b.pages[name].data})
	}
	for _, name := range slices.Sorted(maps.Keys(b.assets)) {
		w.Files = append(w.Files, fileWire{Dir: assetsDir, Name: name, Data: b.assets[name].data})
	}
	// Images are stored once per distinct decoded image, carrying every
	// alias key (in sorted order, as they are met), so the src/absolute-URL
	// double keying doesn't double the bytes.
	index := make(map[image.Image]int, len(b.images))
	for _, key := range slices.Sorted(maps.Keys(b.images)) {
		img := b.images[key]
		if i, ok := index[img]; ok {
			w.Images[i].Keys = append(w.Images[i].Keys, key)
			continue
		}
		var buf bytes.Buffer
		if err := png.Encode(&buf, img); err != nil {
			return nil, fmt.Errorf("proxy: encoding bundle image %q: %w", key, err)
		}
		index[img] = len(w.Images)
		w.Images = append(w.Images, imageWire{Keys: []string{key}, PNG: buf.Bytes()})
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&w); err != nil {
		return nil, fmt.Errorf("proxy: encoding bundle: %w", err)
	}
	return buf.Bytes(), nil
}

// decodeBundle re-materializes a build product; images decode from PNG,
// under imaging.Decode's pixel cap. A record without a main page cannot
// serve an entry and is rejected here, so the handlers never meet one;
// nor can a record whose image is too large to decode.
func decodeBundle(data []byte) (*Bundle, error) {
	var w bundleWire
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&w); err != nil {
		return nil, fmt.Errorf("proxy: decoding bundle: %w", err)
	}
	if w.Version < 1 || w.Version > bundleWireVersion {
		return nil, fmt.Errorf("proxy: bundle version %d (want 1..%d)", w.Version, bundleWireVersion)
	}
	b := &Bundle{
		pages:     make(map[string]*artifact),
		assets:    make(map[string]*artifact),
		subpages:  make(map[string]*attr.Subpage, len(w.Subpages)),
		notes:     w.Notes,
		validator: w.Validator,
	}
	for _, sw := range w.Subpages {
		b.subpages[sw.Name] = &attr.Subpage{
			Name:       sw.Name,
			Title:      sw.Title,
			Parent:     sw.Parent,
			Region:     sw.Region,
			PreRender:  sw.PreRender,
			AJAX:       sw.AJAX,
			Fidelity:   imaging.Fidelity(sw.Fidelity),
			ImageData:  sw.ImageData,
			ImageMIME:  sw.ImageMIME,
			PartialCSS: sw.PartialCSS,
			SearchJS:   sw.SearchJS,
			CacheTTL:   sw.CacheTTL,
			Shared:     sw.Shared,
		}
	}
	b.orderAreas()
	for _, fw := range w.Files {
		set := b.pages
		if fw.Dir == assetsDir {
			set = b.assets
		}
		set[fw.Name] = newArtifact(fw.Name, fw.Data)
	}
	if b.pages[mainPage] == nil {
		return nil, errors.New("proxy: bundle has no main page")
	}
	if len(w.Images) > 0 {
		b.images = make(map[string]image.Image, len(w.Images))
		for _, iw := range w.Images {
			img, err := imaging.Decode(iw.PNG)
			if err != nil {
				return nil, fmt.Errorf("proxy: decoding bundle image: %w", err)
			}
			for _, key := range iw.Keys {
				b.images[key] = img
			}
		}
	}
	return b, nil
}

// loadBundle tries to satisfy a build from the persisted bundle. The
// cache (and the durable tier behind it) decides whether a bundle
// exists; the proxy only remembers the decoded form of the record it
// last saw, so the record is decoded once, not once per session. With a
// tiered cache this is where a restarted proxy skips the whole pipeline.
// A bundle that fails to decode (version drift, torn record) is deleted
// and rebuilt.
func (p *Proxy) loadBundle(ctx context.Context) (*Bundle, bool) {
	// The Get sits under sharedMu, as storeBundle's Put does, so the memo
	// is always compared with the record the cache holds now.
	p.sharedMu.Lock()
	e, ok := p.cfg.Cache.Get(p.bundleKey)
	if !ok || !sameBytes(p.sharedSrc, e.Data) {
		// The record the memo stood for is gone (expired, deleted,
		// replaced): let go of it before its successor is decoded or
		// built, not after.
		p.shared, p.sharedSrc = nil, nil
	}
	b := p.shared
	p.sharedMu.Unlock()
	if !ok {
		return nil, false
	}
	if b == nil {
		var err error
		if b, err = decodeBundle(e.Data); err != nil {
			p.cfg.Cache.Delete(p.bundleKey)
			obs.TraceFrom(ctx).Annotate("bundle", "discarded")
			return nil, false
		}
		p.sharedMu.Lock()
		if p.sharedSrc == nil {
			p.shared, p.sharedSrc = b, e.Data
		} // else a newer record was stored or loaded during the decode
		p.sharedMu.Unlock()
	}
	p.metrics.bundleReuses.Inc()
	obs.TraceFrom(ctx).Annotate("bundle", "reuse")
	return b, true
}

// saveBundle persists a fresh build product. The Put is L1-synchronous
// and store-asynchronous (via the tiered write-through), so the build
// path never waits on disk; encode failures only cost the persistence.
func (p *Proxy) saveBundle(b *Bundle) {
	data, err := encodeBundle(p.cfg.Spec.Name, b)
	if err != nil {
		p.obs.Counter("msite_proxy_bundle_encode_errors_total", "site", p.cfg.Spec.Name).Inc()
		return
	}
	p.storeBundle(b, data)
}

// storeBundle puts an encoded bundle into the cache and remembers b as
// its decoded form, in one step with respect to loadBundle.
func (p *Proxy) storeBundle(b *Bundle, data []byte) {
	p.sharedMu.Lock()
	p.cfg.Cache.Put(p.bundleKey, cache.Entry{Data: data, MIME: "application/x-msite-bundle"}, DefaultBundleTTL)
	p.shared, p.sharedSrc = b, data
	p.sharedMu.Unlock()
}
