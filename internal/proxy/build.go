package proxy

import (
	"context"
	"fmt"
	"image"
	"net/url"
	"runtime"
	"slices"
	"strings"

	"msite/internal/attr"
	"msite/internal/css"
	"msite/internal/dom"
	"msite/internal/fetch"
	"msite/internal/filter"
	"msite/internal/html"
	"msite/internal/imaging"
	"msite/internal/layout"
	"msite/internal/obs"
	"msite/internal/progressive"
	"msite/internal/quality"
	"msite/internal/raster"
	"msite/internal/spec"
)

// This file is the build: the §3.2 pipeline (fetch → filter → tidy →
// attribute phase → file generation) as a function from an origin, a spec
// and fixed options to a Bundle, and the snapshot render of a Bundle. It
// knows nothing of sessions, caches, metric registries or HTTP serving;
// stage spans and trace notes travel on the context, and everything else
// the build observed comes back in its report for the proxy to count.

// buildOptions are a build's inputs besides the fetcher and the spec: what
// the proxy that serves its product fixes once, in New.
type buildOptions struct {
	// applier is the attribute phase's template: the proxy's subpage,
	// asset and AJAX URLs and its render width. A build fills in Images
	// and Ctx.
	applier attr.Applier
	// keepLocal are the URL prefixes re-anchoring leaves relative: the
	// proxy's own subpages, assets and endpoints.
	keepLocal []string
	// repairs are the mobile-repair rules run after the attribute phase.
	repairs []quality.Rule
	// parity turns the content-parity check on; a score below minScore,
	// when that is above 0, refuses the build.
	parity   bool
	minScore float64
}

// newBuildOptions resolves cfg's build inputs for a proxy mounted at
// prefix.
func newBuildOptions(cfg Config, prefix string) (buildOptions, error) {
	if !(cfg.ParityMinScore >= 0 && cfg.ParityMinScore <= 1) {
		return buildOptions{}, fmt.Errorf("proxy: parity minimum score %v outside [0, 1]", cfg.ParityMinScore)
	}
	o := buildOptions{
		applier: attr.Applier{
			ViewportWidth: viewportWidth(cfg.Spec, cfg.ViewportWidth),
			SubpageURL:    func(name string) string { return prefix + "/subpage/" + url.PathEscape(name) },
			AssetURL:      func(name string) string { return prefix + "/asset/" + url.PathEscape(name) },
			AJAXEndpoint:  prefix + "/ajax",
		},
		keepLocal: []string{
			prefix + "/subpage/", prefix + "/asset/", prefix + "/ajax",
			prefix + "/login", prefix + "/logout", prefix + "/auth",
		},
		// A minimum score is a parity check with a gate.
		parity:   cfg.ParityCheck || cfg.ParityMinScore > 0,
		minScore: cfg.ParityMinScore,
	}
	if cfg.RepairRules != "" {
		rules, err := quality.ParseRules(cfg.RepairRules)
		if err != nil {
			return buildOptions{}, fmt.Errorf("proxy: %w", err)
		}
		o.repairs = rules
	}
	return o, nil
}

// buildReport is what a build observed besides its product. It is filled
// in as far as the build got, so a refused build reports too.
type buildReport struct {
	// degraded names the stages that failed and were dropped, in order.
	degraded []string
	// repairs counts the fixes of each repair rule over the main document
	// and every subpage.
	repairs map[string]int
	// parity is the content-parity report; nil when the check is off or
	// the build stopped before it.
	parity *quality.Parity
}

// buildSlots bounds the builds of the process that are past their
// origin fetches: one slot a CPU the scheduler runs Go on. What follows
// the fetches is CPU and memory (styles, layouts, pre-renders and the
// serialized pages) and nothing else, so more builds than CPUs at that
// point only hold more heap at once and finish no sooner. A build
// waiting on its origin holds no slot: a slow origin cannot starve the
// builds whose bytes have arrived. Every proxy of the process shares
// the slots.
var buildSlots = make(chan struct{}, runtime.GOMAXPROCS(0))

// acquireBuildSlot takes a build slot, waiting until one is free or ctx
// ends. Taking a free slot allocates nothing; a build that has to wait
// records a build_wait span on ctx's trace.
func acquireBuildSlot(ctx context.Context) error {
	select {
	case buildSlots <- struct{}{}:
		return nil
	default:
	}
	defer obs.StartSpan(ctx, "build_wait").End()
	select {
	case buildSlots <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// build runs the pipeline once: it fetches s.Origin through f, filters
// and tidies it, fetches the images and stylesheets a render needs,
// takes a build slot, runs the attribute phase and the quality pass, and
// serializes the generated files into a Bundle. Each stage is a span
// (inside an adapt_total envelope) on ctx's trace. The origin fetch,
// every subresource download and the wait for a slot end when ctx does,
// so a disconnected client stops costing the origin or the CPU anything.
func build(ctx context.Context, f *fetch.Fetcher, s *spec.Spec, o *buildOptions) (*Bundle, buildReport, error) {
	var rep buildReport
	total := obs.StartSpan(ctx, "adapt_total")
	defer total.End()

	sp := obs.StartSpan(ctx, "fetch")
	page, err := f.GetContext(ctx, s.Origin)
	sp.End()
	if err != nil {
		return nil, rep, err
	}

	// Every stage past the fetch degrades instead of failing: a broken
	// filter serves the unfiltered source, missing stylesheets render
	// unstyled, a failed attribute phase serves the tidied document
	// whole. The best page we can build beats a 502.
	var degraded []string
	degrade := func(stage string, err error) {
		rep.degraded = append(rep.degraded, stage)
		obs.TraceFrom(ctx).Annotate("degraded_"+stage, err.Error())
		degraded = append(degraded, fmt.Sprintf("degraded %s: %v", stage, err))
	}

	// Filter phase: cheap source-level transforms first (§3.2).
	sp = obs.StartSpan(ctx, "filter")
	src, err := filter.Apply(string(page.Body), s.Filters)
	sp.End()
	if err != nil {
		src = string(page.Body)
		degrade("filter", err)
	}

	// Inline the origin's linked stylesheets so the attribute phase and
	// every render below see the site's real styling, and download the
	// images a render would need (§3.2: the page fetch "includes
	// downloading any images to be rendered"), in one batch; then run
	// the attribute phase over the tidied DOM.
	sp = obs.StartSpan(ctx, "subres")
	doc := html.Tidy(src)
	images, err := fetchSubresources(ctx, f, doc, page.URL)
	if err != nil {
		degrade("stylesheets", err)
	}
	sp.End()
	if err := acquireBuildSlot(ctx); err != nil {
		return nil, rep, err
	}
	defer func() { <-buildSlots }()
	applier := o.applier
	applier.Images, applier.Ctx = images, ctx
	sp = obs.StartSpan(ctx, "attr")
	result, err := applier.Apply(s, doc)
	if err != nil {
		degrade("attributes", err)
		result = &attr.Result{Doc: doc}
	}
	sp.End()

	// Quality pass (post-attr hook): repair rules over the adapted
	// closure, then content parity against the raw origin — before URL
	// re-anchoring so origin and adapted hrefs still compare equal.
	if err := qualityPass(ctx, page, s, o, result, &rep); err != nil {
		return nil, rep, err
	}

	// Re-anchor origin-relative URLs: adapted pages are served from the
	// proxy host, so links back into the origin must be absolute, while
	// proxy-internal references (subpages, assets, rewritten AJAX calls)
	// stay local.
	sp = obs.StartSpan(ctx, "absolutize")
	attr.AbsolutizeURLs(result.Doc, page.URL, o.keepLocal...)
	for _, sub := range result.Subpages {
		attr.AbsolutizeURLs(sub.Doc, page.URL, o.keepLocal...)
	}
	sp.End()

	// Serialize the generated files, once per build. (§3.2 stores "all
	// of the files generated during a user's session" under a per-user
	// directory; here they are the Bundle's artifacts, in memory, and a
	// session only references them.)
	sp = obs.StartSpan(ctx, "subpage_split")
	defer sp.End()
	b := &Bundle{
		pages:  make(map[string]*artifact),
		assets: make(map[string]*artifact),
		notes:  append(result.Notes, degraded...),
		images: images,
	}
	b.sheets.Store(result.Sheets)
	addPage := func(name string, data []byte) { b.pages[name] = newArtifact(name, data, assetCacheControl) }
	addAsset := func(name string, data []byte) { b.assets[name] = newArtifact(name, data, assetCacheControl) }
	for _, sub := range result.Subpages {
		if why := attr.StylesKeptWhole(sub); why != "" {
			b.notes = append(b.notes, fmt.Sprintf("subpage %q ships its stylesheets whole: %s", sub.Name, why))
		}
		addPage(attr.SubpageFileName(sub.Name), attr.SerializeSubpage(sub))
		if len(sub.ImageData) > 0 {
			addAsset(attr.AssetFileName(sub), sub.ImageData)
		}
		// The page now stands for the document: the Bundle keeps what a
		// decoded one holds, the overlay's view of the subpage.
		b.areas = append(b.areas, &attr.Subpage{
			Name: sub.Name, Title: sub.Title, Parent: sub.Parent, Region: sub.Region, AJAX: sub.AJAX,
		})
	}
	slices.SortFunc(b.areas, func(x, y *attr.Subpage) int { return strings.Compare(x.Name, y.Name) })
	b.linkSubpages()
	for _, thumb := range result.Assets {
		addAsset(thumb.Name, thumb.Data)
	}
	// The adapted main document feeds the snapshot render (it excludes
	// split-off objects, matching what the overlay's regions index).
	addPage(mainPage, []byte(html.Render(result.Doc)))
	// The MAML-style minimal page, for a spec that serves it. The spec
	// is part of the bundle key, so a persisted bundle has it exactly
	// when its spec asks for it.
	if s.MinimalMarkup {
		addPage(minimalPage, attr.MinimalMarkupHTML(s.Name, result.Doc))
	}
	return b, rep, nil
}

// qualityPass is the post-attr quality hook: it runs o's mobile-repair
// rules over the adapted entry document and every subpage, then (when the
// parity check is on) validates content parity of the raw origin against
// the adapted closure. A parity score below o.minScore fails the build —
// the one quality condition that is louder than degradation, because
// silently serving a page with missing content is exactly the failure
// mode this pass exists to catch.
func qualityPass(ctx context.Context, page *fetch.Page, s *spec.Spec, o *buildOptions, result *attr.Result, rep *buildReport) error {
	if len(o.repairs) == 0 && !o.parity {
		return nil
	}
	sp := obs.StartSpan(ctx, "quality")
	defer sp.End()

	roots := make([]*dom.Node, 0, 1+len(result.Subpages))
	roots = append(roots, result.Doc)
	for _, sub := range result.Subpages {
		roots = append(roots, sub.Doc)
	}

	for _, root := range roots {
		for _, r := range quality.RepairAll(o.repairs, root) {
			if rep.repairs == nil {
				rep.repairs = make(map[string]int)
			}
			rep.repairs[r.Rule] += r.N
			result.Notes = append(result.Notes,
				fmt.Sprintf("quality: repair rule %s made %d fixes", r.Rule, r.N))
		}
	}

	if !o.parity {
		return nil
	}
	// The origin inventory comes from the *raw* body — before the filter
	// phase — so overzealous filters count as drops too. Subtracting the
	// sanctioned inventory exempts what the spec deliberately removes.
	originDoc := html.Tidy(string(page.Body))
	originInv := quality.InventoryOf(originDoc)
	originInv.Subtract(quality.SanctionedInventory(s, originDoc))
	par := quality.Compare(originInv, quality.InventoryOf(roots...))
	rep.parity = par
	result.Notes = append(result.Notes, par.Notes()...)
	if min := o.minScore; min > 0 && !par.Ok(min) {
		obs.TraceFrom(ctx).Annotate("parity_failure",
			fmt.Sprintf("score %.4f < %.4f", par.Score, min))
		return fmt.Errorf(
			"proxy: content parity %.4f below minimum %.4f (%d of %d items missing: %d text, %d links, %d forms)",
			par.Score, min, par.MissingItems, par.TotalItems,
			par.TextMissing, par.LinksMissing, par.FormsMissing)
	}
	return nil
}

// renderSnapshot renders b's main page, laid out at width, into the entry
// snapshot: scaled by scale and encoded at fidelity. Layout, raster and
// encode are each a span on ctx's trace.
func renderSnapshot(ctx context.Context, b *Bundle, width int, fidelity imaging.Fidelity, scale float64) (progressive.Artifact, error) {
	sp := obs.StartSpan(ctx, "layout")
	res := layoutForDoc(html.Tidy(string(b.pages[mainPage].data)), width, b.sheets.Swap(nil))
	sp.End()
	return progressive.Render(res, progressive.Config{
		Ctx:      ctx,
		Raster:   raster.Options{Images: b.images},
		Fidelity: fidelity,
		Scale:    scale,
	})
}

// layoutForDoc lays out a document at a render width, its stylesheets
// parsed through sheets.
func layoutForDoc(doc *dom.Node, width int, sheets *css.Sheets) *layout.Result {
	styler := css.StylerForDocument(doc, sheets)
	return layout.Layout(doc, styler, layout.Viewport{Width: width})
}

// maxRenderImages bounds per-page image downloads.
const maxRenderImages = 48

// fetchSubresources inlines doc's linked stylesheets and downloads and
// decodes the images a render of doc needs, in one batch through the
// fetcher's bounded worker pool (aborting when ctx ends): both sets are
// known once the entry is tidied, and neither waits on the other. The
// sheets are inlined and the images decoded serially, each in document
// order, so a build's artifacts do not depend on which download finished
// first. Only a base URL that does not parse fails it.
func fetchSubresources(ctx context.Context, f *fetch.Fetcher, doc *dom.Node, base string) (map[string]image.Image, error) {
	baseURL, err := url.Parse(base)
	if err != nil {
		return nil, fmt.Errorf("fetch: bad base URL %q: %w", base, err)
	}
	links, sheetURLs := fetch.StylesheetLinks(doc, baseURL)
	srcs, imageURLs := renderImages(doc, baseURL)
	results := f.FetchAllContext(ctx, append(sheetURLs, imageURLs...), 0)
	fetch.InlineStylesheetResults(links, results[:len(links)])
	return decodeImages(srcs, imageURLs, results[len(links):]), nil
}

// renderImages lists the images a render of doc needs: the src of each
// <img> as written, first occurrence only and at most maxRenderImages,
// with its absolute URL against base.
func renderImages(doc *dom.Node, base *url.URL) (srcs, absURLs []string) {
	seen := make(map[string]bool)
	doc.Walk(func(n *dom.Node) bool {
		if n.Type != dom.ElementNode || n.Tag != "img" || len(srcs) >= maxRenderImages {
			return true
		}
		src := n.AttrOr("src", "")
		if src == "" || strings.HasPrefix(src, "data:") || seen[src] {
			return true
		}
		abs, err := base.Parse(src)
		if err != nil {
			return true
		}
		seen[src] = true
		srcs = append(srcs, src)
		absURLs = append(absURLs, abs.String())
		return true
	})
	return srcs, absURLs
}

// decodeImages decodes the downloaded images, results[i] being the
// download of absURLs[i], keyed by the src attribute value as written
// (the key the rasterizer looks up) and by its absolute form.
// Undecodable or unfetchable images are skipped — the renderer falls
// back to placeholders.
func decodeImages(srcs, absURLs []string, results []fetch.Result) map[string]image.Image {
	images := make(map[string]image.Image)
	for i, res := range results {
		if res.Err != nil {
			continue
		}
		decoded, err := imaging.Decode(res.Page.Body)
		if err != nil {
			continue
		}
		// Key by the attribute as written and by its absolute form: the
		// URL-anchoring pass rewrites srcs to absolute before the
		// snapshot render looks them up.
		images[srcs[i]] = decoded
		images[absURLs[i]] = decoded
	}
	return images
}
