// Package progressive is the one snapshot renderer: it paints a laid-out
// page, scales it and encodes it at a fidelity level. Every server-side
// render — the entry snapshot, pre-rendered subpages and the image
// engines — goes through Render. A render that scales down folds the
// painted bands into the scaled output while later bands are still
// painting, so it never holds the full-size frame.
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
	// Exact encodes the image as an exact palette PNG when the frame has
	// at most 256 colours (imaging.EncodeExact), and at Fidelity only
	// when it has more.
	Exact bool
	// Scale is the scale factor of the encoded image relative to the
	// layout (the spec's snapshot.scale); 0, or any factor that leaves the
	// size unchanged, encodes the frame as painted.
	Scale float64
}

// Render paints res, scales and encodes it. The result is
// Encode(ScaleFactor(Paint(res), scale), fidelity) byte for byte (with
// Exact, EncodeExact of that frame when it has at most 256 colours), and
// its bytes depend only on the layout, the raster options other than
// Workers, Fidelity, Exact and Scale. A render that scales down gets
// there without the painted frame: the bands raster.PaintBands delivers
// are folded into the scaled output while later bands are still painting.
// Only a render that encodes the frame as painted, or magnifies it, paints
// it whole.
//
// Frames and band buffers are plain allocations left to the garbage
// collector. Handing them to imaging's process-wide pool keeps megabytes
// alive across two collections that the next, differently sized, frame
// cannot use: on the benchmark's cold builds that raised peak RSS by 15%
// (a 2.4 MB snapshot frame alone) to 42% (with a 10 MB pre-rendered
// subpage's) and saved at most 6% of the bytes allocated.
func Render(res *layout.Result, cfg Config) (Artifact, error) {
	ctx := cfg.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	fw, fh := raster.FrameSize(res, cfg.Raster)
	outW, outH := fw, fh
	if cfg.Scale > 0 {
		outW, outH = imaging.FactorSize(fw, fh, cfg.Scale)
	}

	sp := obs.StartSpan(ctx, "raster")
	var frame *image.RGBA
	if outW < fw || outH < fh {
		frame = image.NewRGBA(image.Rect(0, 0, outW, outH))
		raster.PaintBands(res, cfg.Raster, imaging.NewBoxFilter(frame, fw, fh).Add)
	} else {
		frame = raster.Paint(res, cfg.Raster)
	}
	sp.End()
	sp = obs.StartSpan(ctx, "encode")
	defer sp.End()
	if outW > fw || outH > fh {
		frame = imaging.Scale(frame, outW, outH)
	}

	out := Artifact{MIME: cfg.Fidelity.MIME(), Width: outW, Height: outH}
	var exact bool
	var err error
	if cfg.Exact {
		out.Data, exact, err = imaging.EncodeExact(frame)
	}
	if exact {
		out.MIME = "image/png"
	} else if err == nil {
		out.Data, err = imaging.Encode(frame, cfg.Fidelity)
	}
	if err != nil {
		return Artifact{}, fmt.Errorf("progressive: encode: %w", err)
	}
	return out, nil
}
