package progressive

import (
	"image"
	"net/http/httptest"
	"testing"

	"msite/internal/css"
	"msite/internal/html"
	"msite/internal/imaging"
	"msite/internal/layout"
	"msite/internal/origin"
	"msite/internal/raster"
)

// forumEntry is the synthetic forum's entry page, as its origin serves it.
func forumEntry() string {
	rec := httptest.NewRecorder()
	origin.NewForum(origin.DefaultForumConfig()).Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/", nil))
	return rec.Body.String()
}

// BenchmarkPaintBandsForum paints and folds the forum's entry page at
// 0.45, as the snapshot does, on one worker, to a consumer that drops
// every band: a render's paint and fold without its encode.
func BenchmarkPaintBandsForum(b *testing.B) {
	doc := html.Tidy(forumEntry())
	res := layout.Layout(doc, css.StylerForDocument(doc), layout.Viewport{Width: 1024})
	fw, fh := raster.FrameSize(res, raster.Options{})
	w, h := imaging.FactorSize(fw, fh, 0.45)
	opts := raster.Options{Workers: 1}
	b.ReportAllocs()
	for b.Loop() {
		raster.PaintBands(res, opts, image.Rect(0, 0, fw, fh), w, h, func(*image.RGBA) {})
	}
}
