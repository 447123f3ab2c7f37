package raster

import (
	"image"
	"strings"
	"testing"

	"msite/internal/css"
	"msite/internal/html"
	"msite/internal/layout"
)

func benchLayout(b *testing.B) *layout.Result {
	b.Helper()
	var sb strings.Builder
	sb.WriteString(`<html><body>`)
	for i := 0; i < 40; i++ {
		sb.WriteString(`<div style="background-color: #dde; border: 1px solid navy; padding: 4px">
<b>Heading text</b> and a longer run of body copy that wraps across the container width.
<img src="x.gif" width="60" height="40"></div>`)
	}
	sb.WriteString("</body></html>")
	doc := html.Parse(sb.String())
	return layout.Layout(doc, css.StylerForDocument(doc), layout.Viewport{Width: 1024})
}

func BenchmarkPaint(b *testing.B) {
	res := benchLayout(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if Paint(res, Options{}) == nil {
			b.Fatal("nil image")
		}
	}
}

// BenchmarkPaintPooled is the steady-state serving profile: the frame
// returns to the pool after each paint, the way the snapshot pipeline
// releases it after encoding. Compare against BenchmarkPaint (which
// keeps every frame) to see the pool's effect on B/op.
func BenchmarkPaintPooled(b *testing.B) {
	res := benchLayout(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		img := Paint(res, Options{})
		if img == nil {
			b.Fatal("nil image")
		}
		Release(img)
	}
}

// BenchmarkPaintBands is PaintBands over the whole frame with a consuming
// band callback — the renderer's paint cost, no frame held.
func BenchmarkPaintBands(b *testing.B) {
	res := benchLayout(b)
	w, h := FrameSize(res, Options{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		PaintBands(res, Options{}, image.Rect(0, 0, w, h), w, h, func(*image.RGBA) {})
	}
}

func BenchmarkPaintSkipText(b *testing.B) {
	res := benchLayout(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Paint(res, Options{SkipText: true})
	}
}

func BenchmarkPaintAntialias(b *testing.B) {
	res := benchLayout(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Paint(res, Options{Antialias: true})
	}
}
