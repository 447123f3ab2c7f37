// Package progressive is the one snapshot renderer: it paints a laid-out
// page, scales it and encodes it at a fidelity level. Every server-side
// render — the entry snapshot, its pre-renders, pre-rendered subpages and
// the image engines — goes through Render.
//
// A caller that passes OnCoarse gets the snapshot as a temporal fidelity
// ladder: a coarse, heavily down-scaled JPEG the proxy can serve the
// moment rasterization finishes, followed by the full-fidelity encode as
// an upgrade artifact. It applies the paper's fidelity-reduction
// attribute (§3.3 "Image fidelity") along the time axis, and the
// down-scale is folded from the bands raster.StreamPaint delivers while
// later bands are still painting, so the coarse rung costs almost
// nothing beyond the paint itself.
package progressive

import (
	"context"
	"fmt"
	"image"
	"image/color"

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
	// Scale is the scale factor applied to the painted frame before the
	// encode (the spec's snapshot.scale); 0 encodes the frame as painted.
	Scale float64
	// OnCoarse, when non-nil, asks for the coarse rung and receives it as
	// soon as it is encoded — before the full-fidelity scale+encode
	// begins. The serving path uses this to publish the low-quality
	// snapshot while the full encode is still running.
	OnCoarse func(Artifact)
}

// Result carries the rungs of one render.
type Result struct {
	// Coarse is the low-quality first rung; zero without OnCoarse.
	Coarse Artifact
	// Full is the full-fidelity artifact. Its bytes depend only on the
	// layout, the raster options other than Workers, Fidelity and Scale.
	Full Artifact
}

// Render paints res, scales and encodes it. With OnCoarse it paints
// band-by-band, accumulating the coarse frame from each band as it is
// delivered (the down-scale hides behind painting), and encodes and
// publishes the coarse rung first. Either way the full rung is
// Encode(ScaleFactor(Paint(res), scale), fidelity) byte for byte — the
// ladder changes when bytes exist, never which bytes.
//
// The painted and the scaled frame are left to the garbage collector on
// every path. Handing either back to imaging's pool keeps megabytes
// alive across two collections that the next, differently sized, frame
// cannot use: on the benchmark's cold builds that raised peak RSS by 15%
// (the 2.4 MB snapshot frame alone) to 42% (with the 10 MB pre-rendered
// subpage's) and saved at most 6% of the bytes allocated.
func Render(res *layout.Result, cfg Config) (*Result, error) {
	ctx := cfg.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	var acc *coarseAccum
	var onBand raster.BandFunc
	if cfg.OnCoarse != nil {
		fw, fh := raster.FrameSize(res, cfg.Raster)
		outW, outH := fw, fh
		if cfg.Scale > 0 {
			outW, outH = max(int(float64(fw)*cfg.Scale), 1), max(int(float64(fh)*cfg.Scale), 1)
		}
		acc = newCoarseAccum(fw, fh, int(float64(outW)*CoarseScale), int(float64(outH)*CoarseScale))
		onBand = acc.addBand
	}

	sp := obs.StartSpan(ctx, "raster")
	frame := raster.StreamPaint(res, cfg.Raster, onBand)
	sp.End()
	sp = obs.StartSpan(ctx, "encode")
	defer sp.End()

	out := &Result{}
	if acc != nil {
		coarse := acc.finish()
		data, err := imaging.EncodeJPEG(coarse, CoarseQuality)
		imaging.PutRGBA(coarse)
		if err != nil {
			return nil, fmt.Errorf("progressive: coarse encode: %w", err)
		}
		out.Coarse = Artifact{Data: data, MIME: "image/jpeg", Width: acc.w, Height: acc.h}
		cfg.OnCoarse(out.Coarse)
	}

	if cfg.Scale > 0 {
		frame = imaging.ScaleFactor(frame, cfg.Scale)
	}
	data, err := imaging.Encode(frame, cfg.Fidelity)
	fb := frame.Bounds()
	if err != nil {
		return nil, fmt.Errorf("progressive: full encode: %w", err)
	}
	out.Full = Artifact{Data: data, MIME: cfg.Fidelity.MIME(), Width: fb.Dx(), Height: fb.Dy()}
	return out, nil
}

// coarseAccum box-averages full-frame scanlines into the coarse frame
// incrementally: each delivered band's rows fold into the coarse row
// they map to, so by the time the last band lands the coarse frame needs
// only the (cheap, small) JPEG encode. The arithmetic matches
// imaging.Scale's box filter.
type coarseAccum struct {
	srcW, srcH int
	w, h       int
	out        *image.RGBA
	// sums holds the in-progress channel sums for the current coarse
	// row: 4 channels × w columns.
	sums []uint64
	// curDy is the coarse row being accumulated; nextSrcY is the next
	// full-frame row expected (bands arrive in order, so rows do too);
	// rowsIn counts the source rows folded into curDy so far.
	curDy, nextSrcY, rowsIn int
	// colRange caches each coarse column's source-column span.
	colX0, colX1 []int
}

func newCoarseAccum(srcW, srcH, w, h int) *coarseAccum {
	if w < 1 {
		w = 1
	}
	if h < 1 {
		h = 1
	}
	// The coarse rung is strictly a minification; clamp up to the frame
	// so the row partition below stays a partition.
	if w > srcW {
		w = srcW
	}
	if h > srcH {
		h = srcH
	}
	a := &coarseAccum{
		srcW: srcW, srcH: srcH, w: w, h: h,
		out:   imaging.GetRGBA(w, h),
		sums:  make([]uint64, 4*w),
		colX0: make([]int, w),
		colX1: make([]int, w),
	}
	for dx := 0; dx < w; dx++ {
		a.colX0[dx] = dx * srcW / w
		a.colX1[dx] = (dx + 1) * srcW / w
		if a.colX1[dx] <= a.colX0[dx] {
			a.colX1[dx] = a.colX0[dx] + 1
		}
	}
	return a
}

// rowEnd is the exclusive last source row of coarse row dy.
func (a *coarseAccum) rowEnd(dy int) int { return (dy + 1) * a.srcH / a.h }

// addBand folds one delivered band's rows into the accumulator.
func (a *coarseAccum) addBand(view *image.RGBA) {
	vb := view.Bounds()
	for y := vb.Min.Y; y < vb.Max.Y; y++ {
		if y != a.nextSrcY || a.curDy >= a.h {
			continue // defensive: out-of-order or trailing rows
		}
		a.nextSrcY++
		a.rowsIn++
		for dx := 0; dx < a.w; dx++ {
			s := a.sums[4*dx : 4*dx+4]
			for sx := a.colX0[dx]; sx < a.colX1[dx]; sx++ {
				c := view.RGBAAt(sx, y)
				// Accumulate at 16-bit depth, matching color.RGBA.RGBA()
				// so the result equals imaging.Scale's box filter.
				s[0] += uint64(c.R) * 0x101
				s[1] += uint64(c.G) * 0x101
				s[2] += uint64(c.B) * 0x101
				s[3] += uint64(c.A) * 0x101
			}
		}
		if a.nextSrcY == a.rowEnd(a.curDy) {
			a.flushRow()
		}
	}
}

// flushRow finalizes the current coarse row's pixels and resets the sums
// for the next one.
func (a *coarseAccum) flushRow() {
	for dx := 0; dx < a.w; dx++ {
		s := a.sums[4*dx : 4*dx+4]
		n := uint64(a.rowsIn * (a.colX1[dx] - a.colX0[dx]))
		a.out.SetRGBA(dx, a.curDy, rgba8(s, n))
		s[0], s[1], s[2], s[3] = 0, 0, 0, 0
	}
	a.curDy++
	a.rowsIn = 0
}

// finish returns the accumulated coarse frame. Every row is written on
// the normal path (the band partition covers the frame); if delivery
// ended early the partial row is averaged and the remainder blanked, so
// pooled memory never leaks stale pixels into an encode.
func (a *coarseAccum) finish() *image.RGBA {
	if a.rowsIn > 0 && a.curDy < a.h {
		a.flushRow()
	}
	for dy := a.curDy; dy < a.h; dy++ {
		for dx := 0; dx < a.w; dx++ {
			a.out.SetRGBA(dx, dy, color.RGBA{R: 255, G: 255, B: 255, A: 255})
		}
	}
	a.curDy = a.h
	return a.out
}

// rgba8 converts 16-bit channel sums over n samples back to 8-bit,
// matching imaging.Scale's box filter rounding.
func rgba8(s []uint64, n uint64) color.RGBA {
	if n == 0 {
		return color.RGBA{R: 255, G: 255, B: 255, A: 255}
	}
	return color.RGBA{
		R: uint8(s[0] / n >> 8),
		G: uint8(s[1] / n >> 8),
		B: uint8(s[2] / n >> 8),
		A: uint8(s[3] / n >> 8),
	}
}
