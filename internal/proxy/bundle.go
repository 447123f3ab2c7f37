package proxy

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"image"
	"image/png"
	"maps"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"

	"msite/internal/attr"
	"msite/internal/cache"
	"msite/internal/css"
	"msite/internal/imaging"
	"msite/internal/layout"
	"msite/internal/obs"
	"msite/internal/spec"
)

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
	// areas describe the split-off objects in name order, the entry
	// overlay's <area> order, so that a Bundle serves the same entry bytes
	// however it came to be (built or decoded). Each holds only what the
	// overlay and the subpage handler read: Name, Title, Parent, Region
	// and AJAX. A subpage's document is its page.
	areas []*attr.Subpage
	// subpages are the areas' pages, in the same order; nil for an area
	// without one.
	subpages []*artifact
	notes    []string
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
	// overlay is the entry overlay last built over areas (see
	// Proxy.entryOverlay). Like sheets, it is not on the wire.
	overlay atomic.Pointer[builtOverlay]
}

// builtOverlay is a Bundle's entry overlay for one snapshot geometry.
type builtOverlay struct {
	width, height int
	page          []byte
}

// entryOverlay returns b's entry overlay for a snapshot of the given
// geometry. The rest of the page is the proxy's own, so the Bundle keeps
// the last one built and serves it while the geometry holds. The
// geometry is part of the key, not implied by the Bundle: the shared
// snapshot may have been rendered from another Bundle, and may be
// re-rendered at another height while this one is still served.
func (p *Proxy) entryOverlay(b *Bundle, width, height int) []byte {
	if o := b.overlay.Load(); o != nil && o.width == width && o.height == height {
		return o.page
	}
	ov := p.overlay
	ov.Width, ov.Height = width, height
	o := &builtOverlay{width: width, height: height, page: p.build.applier.BuildOverlay(ov, b.areas)}
	b.overlay.Store(o)
	return o.page
}

// linkSubpages finds each area's page.
func (b *Bundle) linkSubpages() {
	b.subpages = make([]*artifact, len(b.areas))
	for i, sub := range b.areas {
		b.subpages[i] = b.pages[attr.SubpageFileName(sub.Name)]
	}
}

// subpage returns the page of the subpage called name, or nil. Only an
// area's own name finds its page: "a b" shares "a_b"'s file name, not
// its page.
func (b *Bundle) subpage(name string) *artifact {
	for i, sub := range b.areas {
		if sub.Name == name {
			return b.subpages[i]
		}
	}
	return nil
}

// artifact is one servable body with the header values derived from it.
type artifact struct {
	data []byte
	// ctype, length, etag and cacheControl are the values of the
	// Content-Type, Content-Length, ETag and Cache-Control headers it goes
	// out with (an asset's; a page is served without Cache-Control), made
	// once with it. A handler sets them as they are, so each has len ==
	// cap: a handler further out that Adds to one copies it rather than
	// write into what every response shares.
	ctype, length, etag, cacheControl []string
	// vals backs those four.
	vals [4]string
}

// assetCacheControl lets a device keep a Bundle's images, and a snapshot
// whose spec sets no TTL, for five minutes.
const assetCacheControl = "private, max-age=300"

// newArtifact derives an artifact's content type from its file name and
// its validator from its bytes, once.
func newArtifact(name string, data []byte, cacheControl string) *artifact {
	ctype := "application/octet-stream"
	switch {
	case strings.HasSuffix(name, ".html"):
		ctype = "text/html; charset=utf-8"
	case strings.HasSuffix(name, ".png"):
		ctype = "image/png"
	case strings.HasSuffix(name, ".jpg"):
		ctype = "image/jpeg"
	}
	a := &artifact{data: data}
	a.vals = [4]string{ctype, strconv.Itoa(len(data)), fmt.Sprintf(`"%08x-%d"`, crc32.ChecksumIEEE(data), len(data)), cacheControl}
	a.ctype, a.length, a.etag, a.cacheControl = a.vals[0:1:1], a.vals[1:2:2], a.vals[2:3:3], a.vals[3:4:4]
	return a
}

// sameBytes reports whether a and b are the same backing bytes, not
// merely equal ones.
func sameBytes(a, b []byte) bool {
	return len(a) == len(b) && len(a) > 0 && &a[0] == &b[0]
}

// The two pages every build generates besides the subpages.
const (
	mainPage    = "main.html"
	minimalPage = "minimal.html"
)

// bundleMagic opens every Bundle record and names its layout. A record
// that opens otherwise, such as the gob record of an older binary, is
// discarded and rebuilt like a torn one.
//
// After the magic come five lists, each a big-endian uint32 count and
// its entries; a string or byte field is a uint32 length and its bytes:
//
//	notes   the note
//	areas   name, title, parent, region as 4 × int32, AJAX as one byte
//	pages   name, bytes
//	assets  name, bytes
//	images  key count, the keys, PNG
//
// Areas, pages and assets come in strictly increasing name order. An
// image is one distinct decoded image under every key it is stored by
// (an <img> src as written and its absolute form), its keys and then the
// images by their first keys in strictly increasing order. A decoder
// accepts nothing else, so an accepted record encodes back to itself, up
// to the bytes the PNG encoder writes.
const bundleMagic = "MSITEBN3"

// recordWriter lays out a Bundle record. With no buffer it only
// measures, so that a second pass can append into a buffer allocated
// once at the record's size.
type recordWriter struct {
	buf []byte
	n   int
}

func (w *recordWriter) uint32(v int) {
	w.n += 4
	if w.buf != nil {
		w.buf = binary.BigEndian.AppendUint32(w.buf, uint32(v))
	}
}

// put writes p as it is; field writes it after its length.
func put[T string | []byte](w *recordWriter, p T) {
	w.n += len(p)
	if w.buf != nil {
		w.buf = append(w.buf, p...)
	}
}

func field[T string | []byte](w *recordWriter, p T) {
	w.uint32(len(p))
	put(w, p)
}

// encodeBundle serializes a build product for the durable tier, as the
// bundleMagic layout. One Bundle always encodes to the same bytes.
func encodeBundle(b *Bundle) ([]byte, error) {
	// Each distinct decoded image is written once, as pngs[i], under the
	// keys keys[i].
	var keys [][]string
	var pngs [][]byte
	index := make(map[image.Image]int, len(b.images))
	for _, key := range slices.Sorted(maps.Keys(b.images)) {
		img := b.images[key]
		if i, ok := index[img]; ok {
			keys[i] = append(keys[i], key)
			continue
		}
		var buf bytes.Buffer
		if err := png.Encode(&buf, img); err != nil {
			return nil, fmt.Errorf("proxy: encoding bundle image %q: %w", key, err)
		}
		index[img] = len(pngs)
		keys, pngs = append(keys, []string{key}), append(pngs, buf.Bytes())
	}
	files := func(w *recordWriter, set map[string]*artifact) {
		w.uint32(len(set))
		for _, name := range slices.Sorted(maps.Keys(set)) {
			field(w, name)
			field(w, set[name].data)
		}
	}
	write := func(w *recordWriter) {
		put(w, bundleMagic)
		w.uint32(len(b.notes))
		for _, note := range b.notes {
			field(w, note)
		}
		w.uint32(len(b.areas))
		for _, sub := range b.areas {
			field(w, sub.Name)
			field(w, sub.Title)
			field(w, sub.Parent)
			for _, v := range [4]int{sub.Region.X, sub.Region.Y, sub.Region.W, sub.Region.H} {
				w.uint32(v)
			}
			ajax := "\x00"
			if sub.AJAX {
				ajax = "\x01"
			}
			put(w, ajax)
		}
		files(w, b.pages)
		files(w, b.assets)
		w.uint32(len(pngs))
		for i, encoded := range pngs {
			w.uint32(len(keys[i]))
			for _, key := range keys[i] {
				field(w, key)
			}
			field(w, encoded)
		}
	}
	var size recordWriter
	write(&size)
	w := recordWriter{buf: make([]byte, 0, size.n)}
	write(&w)
	return w.buf, nil
}

// recordReader takes a Bundle record apart. Its first fault sticks:
// every later read returns zero values.
type recordReader struct {
	rest []byte
	err  error
}

func (r *recordReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("proxy: bundle record: "+format, args...)
	}
}

// take returns the next n bytes of the record, aliasing it.
func (r *recordReader) take(n uint64) []byte {
	if n > uint64(len(r.rest)) {
		r.fail("%d bytes wanted, %d left", n, len(r.rest))
	}
	if r.err != nil {
		return nil
	}
	p := r.rest[:n:n]
	r.rest = r.rest[n:]
	return p
}

func (r *recordReader) uint32() uint32 {
	if p := r.take(4); p != nil {
		return binary.BigEndian.Uint32(p)
	}
	return 0
}

// field returns the next length-prefixed field, aliasing the record.
func (r *recordReader) field() []byte { return r.take(uint64(r.uint32())) }

// count reads the length of a list whose entries are each at least size
// bytes, refusing one that what is left of the record could not hold.
func (r *recordReader) count(size int) int {
	n := uint64(r.uint32())
	if n*uint64(size) > uint64(len(r.rest)) {
		r.fail("%d entries of at least %d bytes, %d bytes left", n, size, len(r.rest))
		return 0
	}
	return int(n)
}

// name reads a name, which must sort after prev unless it is the first
// of its list.
func (r *recordReader) name(first bool, prev string) string {
	name := string(r.field())
	if !first && name <= prev {
		r.fail("name %q does not sort after %q", name, prev)
	}
	return name
}

// artifacts reads the pages or the assets.
func (r *recordReader) artifacts() map[string]*artifact {
	n := r.count(8)
	set := make(map[string]*artifact, n)
	name := ""
	for i := 0; i < n && r.err == nil; i++ {
		name = r.name(i == 0, name)
		set[name] = newArtifact(name, r.field(), assetCacheControl)
	}
	return set
}

// decodeBundle re-materializes a build product from the bundleMagic
// layout. Pages and assets alias data, which the caller must not modify;
// images decode from PNG under imaging.Decode's pixel cap. A record
// without a main page cannot serve an entry and is rejected here, so the
// handlers never meet one; nor can a record whose image is too large to
// decode.
func decodeBundle(data []byte) (*Bundle, error) {
	r := recordReader{rest: data}
	if string(r.take(uint64(len(bundleMagic)))) != bundleMagic {
		return nil, errors.New("proxy: not a bundle record")
	}
	b := &Bundle{}
	if n := r.count(4); n > 0 {
		b.notes = make([]string, n)
		for i := range b.notes {
			b.notes[i] = string(r.field())
		}
	}
	if n := r.count(3*4 + 4*4 + 1); n > 0 {
		subs := make([]attr.Subpage, n)
		b.areas = make([]*attr.Subpage, n)
		for i := 0; i < n && r.err == nil; i++ {
			sub := &subs[i]
			sub.Name = r.name(i == 0, subs[max(i-1, 0)].Name)
			sub.Title, sub.Parent = string(r.field()), string(r.field())
			for _, v := range []*int{&sub.Region.X, &sub.Region.Y, &sub.Region.W, &sub.Region.H} {
				*v = int(int32(r.uint32()))
			}
			if ajax := r.take(1); ajax != nil && ajax[0] > 1 {
				r.fail("AJAX byte %d", ajax[0])
			} else {
				sub.AJAX = ajax != nil && ajax[0] == 1
			}
			b.areas[i] = sub
		}
	}
	b.pages = r.artifacts()
	b.assets = r.artifacts()
	if n := r.count(3 * 4); n > 0 {
		b.images = make(map[string]image.Image)
		key := ""
		for i := 0; i < n && r.err == nil; i++ {
			// An image's first key sorts after the previous image's.
			keys := make([]string, r.count(4))
			for j := range keys {
				keys[j] = r.name(i+j == 0, key)
				key = keys[j]
			}
			if len(keys) > 0 {
				key = keys[0]
			} else {
				r.fail("image %d has no key", i)
			}
			encoded := r.field()
			if r.err != nil {
				break
			}
			img, err := imaging.Decode(encoded)
			if err != nil {
				return nil, fmt.Errorf("proxy: decoding bundle image: %w", err)
			}
			for _, k := range keys {
				if _, ok := b.images[k]; ok {
					r.fail("image key %q stored twice", k)
				}
				b.images[k] = img
			}
		}
	}
	if len(r.rest) > 0 {
		r.fail("%d trailing bytes", len(r.rest))
	}
	if r.err != nil {
		return nil, r.err
	}
	if b.pages[mainPage] == nil {
		return nil, errors.New("proxy: bundle has no main page")
	}
	b.linkSubpages()
	return b, nil
}

// loadBundle tries to satisfy a build from the persisted bundle. The
// cache (and the durable tier behind it) decides whether a bundle
// exists; the proxy only remembers the decoded form of the record it
// last saw, so the record is decoded once, not once per session. With a
// tiered cache this is where a restarted proxy skips the whole pipeline.
// A record that fails to decode (another format, a torn write) is
// deleted and rebuilt.
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
	data, err := encodeBundle(b)
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
