package proxy

import (
	"runtime"
	"testing"

	"msite/internal/spec"
)

// TestColdBuildAllocationBudget cold-builds the evaluation spec — a
// pre-rendered searchable forums subpage, a thumbnailed <object>, the
// scaled entry snapshot — and holds what the build allocates to a budget.
// Before the renderer scaled in bands a build cost ~790 k allocations and
// ~35 MB, 600 k of them one boxed color.RGBA per pixel read through
// image.Image.At and 21 MB of it three desktop-size frames; the budget
// sits between the two, so neither a per-pixel interface call nor a full
// frame can come back unnoticed.
func TestColdBuildAllocationBudget(t *testing.T) {
	const maxMallocs, maxBytes = 150_000, 22 << 20
	build := func() (mallocs, bytes uint64) {
		rig := newRig(t, func(sp *spec.Spec) {
			sp.Objects = append(sp.Objects, spec.Object{Name: "shoptour", Selector: "#shoptour object",
				Attributes: []spec.Attribute{{Type: spec.AttrThumbnail, Params: map[string]string{"scale": "0.4"}}}})
			forums := &sp.Objects[len(sp.Objects)-2]
			forums.Attributes = append(forums.Attributes,
				spec.Attribute{Type: spec.AttrSearchable, Params: map[string]string{"trigger": "msite-search"}})
		})
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rig.get(t, "/")
		runtime.ReadMemStats(&after)
		if st := rig.p.Stats(); st.Adaptations != 1 || st.SnapshotRenders != 1 {
			t.Fatalf("one GET of a cold proxy ran %d adaptations and %d snapshot renders", st.Adaptations, st.SnapshotRenders)
		}
		return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
	}
	build() // the process's first build also pays for lazily built tables
	mallocs, bytes := build()
	t.Logf("cold build: %d allocations, %.1f MB", mallocs, float64(bytes)/(1<<20))
	if mallocs > maxMallocs || bytes > maxBytes {
		t.Fatalf("cold build allocated %d objects, %.1f MB; budget %d, %d MB",
			mallocs, float64(bytes)/(1<<20), maxMallocs, maxBytes>>20)
	}
}
