// Package progressive is the one snapshot renderer: it paints a laid-out
// page, scales it and encodes it at a fidelity level. Every server-side
// render — the entry snapshot, its pre-renders, pre-rendered subpages and
// the image engines — goes through Render.
//
// A caller that passes OnCoarse gets the snapshot as a temporal fidelity
// ladder: a coarse, heavily down-scaled JPEG the proxy can serve the
// moment rasterization finishes, followed by the full-fidelity encode as
// an upgrade artifact. It applies the paper's fidelity-reduction
// attribute (§3.3 "Image fidelity") along the time axis, and the coarse
// frame is folded from the same bands while later bands are still
// painting, so the coarse rung costs almost nothing beyond the paint
// itself.
package progressive

import (
	"context"
	"fmt"
	"image"

	"msite/internal/imaging"
	"msite/internal/layout"
	"msite/internal/obs"
	"msite/internal/raster"
)

// CoarseScale is the coarse snapshot's linear scale relative to the
// full-fidelity output: a quarter-scale frame is 1/16th the pixels,
// which with CoarseQuality lands the coarse artifact around 2–5% of the
// full PNG's bytes.
const CoarseScale = 0.25

// CoarseQuality is the coarse snapshot's JPEG quality.
const CoarseQuality = 35

// Artifact is one encoded snapshot rung.
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
	// Fidelity selects the full-fidelity rung's encoding.
	Fidelity imaging.Fidelity
	// Exact encodes the full rung as an exact palette PNG when the frame
	// has at most 256 colours (imaging.EncodeExact), and at Fidelity only
	// when it has more.
	Exact bool
	// Scale is the scale factor of the encoded image relative to the
	// layout (the spec's snapshot.scale); 0, or any factor that leaves the
	// size unchanged, encodes the frame as painted.
	Scale float64
	// OnCoarse, when non-nil, asks for the coarse rung and receives it as
	// soon as it is encoded — before the full-fidelity encode begins. The
	// serving path uses this to publish the low-quality snapshot while
	// the full encode is still running.
	OnCoarse func(Artifact)
}

// Result carries the rungs of one render.
type Result struct {
	// Coarse is the low-quality first rung; zero without OnCoarse.
	Coarse Artifact
	// Full is the full-fidelity artifact. Its bytes depend only on the
	// layout, the raster options other than Workers, Fidelity, Exact and
	// Scale.
	Full Artifact
}

// Render paints res, scales and encodes it. The full rung is
// Encode(ScaleFactor(Paint(res), scale), fidelity) byte for byte on every
// path (with Exact, EncodeExact of that frame when it has at most 256
// colours) — the ladder changes when bytes exist, never which bytes — but a
// render that scales down gets there without the painted frame: the bands
// raster.PaintBands delivers are folded into the scaled output (and, with
// OnCoarse, into the coarse frame) while later bands are still painting.
// Only a render that encodes the frame as painted, or magnifies it, paints
// it whole.
//
// Frames and band buffers are plain allocations left to the garbage
// collector. Handing them to imaging's process-wide pool keeps megabytes
// alive across two collections that the next, differently sized, frame
// cannot use: on the benchmark's cold builds that raised peak RSS by 15%
// (a 2.4 MB snapshot frame alone) to 42% (with a 10 MB pre-rendered
// subpage's) and saved at most 6% of the bytes allocated.
func Render(res *layout.Result, cfg Config) (*Result, error) {
	ctx := cfg.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	fw, fh := raster.FrameSize(res, cfg.Raster)
	outW, outH := fw, fh
	if cfg.Scale > 0 {
		outW, outH = imaging.FactorSize(fw, fh, cfg.Scale)
	}
	var folds []*imaging.BoxFilter
	fold := func(w, h int) *image.RGBA {
		dst := image.NewRGBA(image.Rect(0, 0, w, h))
		folds = append(folds, imaging.NewBoxFilter(dst, fw, fh))
		return dst
	}
	var coarse *image.RGBA
	if cfg.OnCoarse != nil {
		// The coarse rung is strictly a minification of the frame.
		cw, ch := imaging.FactorSize(outW, outH, CoarseScale)
		coarse = fold(min(cw, fw), min(ch, fh))
	}
	onBand := func(band *image.RGBA) {
		for _, f := range folds {
			f.Add(band)
		}
	}

	sp := obs.StartSpan(ctx, "raster")
	var frame *image.RGBA
	if outW < fw || outH < fh {
		frame = fold(outW, outH)
		raster.PaintBands(res, cfg.Raster, onBand)
	} else {
		frame = raster.StreamPaint(res, cfg.Raster, onBand)
	}
	sp.End()
	sp = obs.StartSpan(ctx, "encode")
	defer sp.End()
	if outW > fw || outH > fh {
		frame = imaging.Scale(frame, outW, outH)
	}

	out := &Result{}
	if coarse != nil {
		data, err := imaging.EncodeJPEG(coarse, CoarseQuality)
		if err != nil {
			return nil, fmt.Errorf("progressive: coarse encode: %w", err)
		}
		out.Coarse = Artifact{Data: data, MIME: "image/jpeg", Width: coarse.Rect.Dx(), Height: coarse.Rect.Dy()}
		cfg.OnCoarse(out.Coarse)
	}
	out.Full = Artifact{MIME: cfg.Fidelity.MIME(), Width: outW, Height: outH}
	var exact bool
	var err error
	if cfg.Exact {
		out.Full.Data, exact, err = imaging.EncodeExact(frame)
	}
	if exact {
		out.Full.MIME = "image/png"
	} else if err == nil {
		out.Full.Data, err = imaging.Encode(frame, cfg.Fidelity)
	}
	if err != nil {
		return nil, fmt.Errorf("progressive: full encode: %w", err)
	}
	return out, nil
}
