// Package progressive is the one snapshot renderer: it paints a laid-out
// page, or a rectangle of it, scales it and encodes it at a fidelity
// level. Every server-side render — the entry snapshot, pre-rendered and
// partial-CSS subpages and thumbnails — goes through RenderRegion.
// The painted bands, each folded by the worker that painted it when the
// render scales down, stream into an imaging.Frame. An Exact render that
// is not magnified gets an exact frame, which deflates the rows as they
// arrive and keeps only their compressed bytes; any other frame holds the
// image as palette indices, one byte a pixel, while it has at most 256
// colours. No render holds an RGBA frame of its source, and a flat one
// none of its output either. A render of more colours — a photo on the
// page — ends in an RGBA frame of its output, 4 bytes a pixel: an exact
// frame inflates its rows into it, any other copies its palette indices
// in, 5 bytes an output pixel in all. An image is magnified, if at all,
// from the collected frame.
package progressive

import (
	"context"
	"errors"
	"fmt"
	"image"

	"msite/internal/imaging"
	"msite/internal/layout"
	"msite/internal/obs"
	"msite/internal/raster"
)

// Artifact is one encoded render.
type Artifact struct {
	// Data is the encoded image.
	Data []byte
	// MIME is its content type.
	MIME string
	// Width and Height are the encoded pixel dimensions.
	Width, Height int
}

// Config describes one render.
type Config struct {
	// Ctx, when it carries an obs trace, receives a "raster" and an
	// "encode" stage span. Nil records nothing.
	Ctx context.Context
	// Raster configures the painting pass (images, workers, antialias).
	Raster raster.Options
	// Fidelity selects the encoding.
	Fidelity imaging.Fidelity
	// Exact encodes the image as an exact palette PNG when it has at most
	// 256 colours, and at Fidelity only when it has more.
	Exact bool
	// Scale is the scale factor of the encoded image relative to the
	// layout (the spec's snapshot.scale); 0, or any factor that leaves the
	// size unchanged, encodes the frame as painted.
	Scale float64
}

// Render renders the whole frame of res: RenderRegion of the rectangle
// raster.FrameSize gives.
func Render(res *layout.Result, cfg Config) (Artifact, error) {
	w, h := raster.FrameSize(res, cfg.Raster)
	return RenderRegion(res, cfg, image.Rect(0, 0, w, h))
}

// ErrOutsideFrame is RenderRegion's error for a region that covers no
// pixel of the frame.
var ErrOutsideFrame = errors.New("progressive: region covers no pixel of the frame")

// RenderRegion paints the part of res's frame inside r, scales and
// encodes it: Encode(ScaleFactor(crop, scale), fidelity) of that rectangle
// of Paint(res) byte for byte (with Exact, a palette PNG of that image when
// it has at most 256 colours), whatever raster.Options.Workers is. Frames,
// an exact frame's deflate state and the workers' buffers are plain
// allocations: a pool keeps megabytes alive across two collections that
// the next, differently sized, frame cannot use (peak RSS +15–42% on the
// benchmark's cold builds for at most 6% fewer bytes allocated).
func RenderRegion(res *layout.Result, cfg Config, r image.Rectangle) (Artifact, error) {
	fw, fh := raster.FrameSize(res, cfg.Raster)
	if r = r.Intersect(image.Rect(0, 0, fw, fh)); r.Empty() {
		return Artifact{}, ErrOutsideFrame
	}
	ctx := cfg.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	sw, sh := r.Dx(), r.Dy()
	outW, outH := sw, sh
	if cfg.Scale > 0 {
		outW, outH = imaging.FactorSize(sw, sh, cfg.Scale)
	}

	sp := obs.StartSpan(ctx, "raster")
	fold := outW < sw || outH < sh
	magnify := !fold && (outW > sw || outH > sh)
	fw, fh = sw, sh
	if fold {
		fw, fh = outW, outH
	}
	frame := imaging.NewFrame(fw, fh, cfg.Exact && !magnify)
	raster.PaintBands(res, cfg.Raster, r, fw, fh, frame.Add)
	sp.End()
	sp = obs.StartSpan(ctx, "encode")
	defer sp.End()
	mime := cfg.Fidelity.MIME()
	var data []byte
	var err error
	switch {
	case !magnify:
		data, mime, err = frame.Encode(cfg.Fidelity)
	case !cfg.Exact:
		// Bilinear magnification blends neighbouring colours, so only an
		// exact render collects the magnified image to look for a palette.
		data, err = imaging.Encode(imaging.Scale(frame.Image(), outW, outH), cfg.Fidelity)
	default:
		magnified := imaging.NewFrame(outW, outH, true)
		magnified.Add(imaging.Scale(frame.Image(), outW, outH))
		data, mime, err = magnified.Encode(cfg.Fidelity)
	}
	if err != nil {
		return Artifact{}, fmt.Errorf("progressive: encode: %w", err)
	}
	return Artifact{Data: data, MIME: mime, Width: outW, Height: outH}, nil
}
