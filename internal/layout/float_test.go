package layout

import (
	"slices"
	"testing"
)

func TestFloatLeftPair(t *testing.T) {
	res := doLayout(t, `<html><body>
		<div id="a" style="float: left; width: 200px; height: 50px"></div>
		<div id="b" style="float: left; width: 300px; height: 80px"></div>
		<div id="after" style="height: 10px"></div>
	</body></html>`, 1000)
	ax, ay, aw, _, _ := regionByID(t, res, "a")
	bx, by, _, _, _ := regionByID(t, res, "b")
	if ax != 0 || aw != 200 {
		t.Fatalf("a = x%d w%d", ax, aw)
	}
	if bx != 200 {
		t.Fatalf("b x = %d, want beside a", bx)
	}
	if ay != by {
		t.Fatal("floats not on same band")
	}
	// In-flow content clears below the tallest float.
	_, afterY, _, _, _ := regionByID(t, res, "after")
	if afterY != 80 {
		t.Fatalf("after y = %d, want 80", afterY)
	}
}

func TestFloatRight(t *testing.T) {
	res := doLayout(t, `<html><body>
		<div id="l" style="float: left; width: 440px; height: 60px"></div>
		<div id="r" style="float: right; width: 520px; height: 60px"></div>
	</body></html>`, 1000)
	lx, _, _, _, _ := regionByID(t, res, "l")
	rx, _, rw, _, _ := regionByID(t, res, "r")
	if lx != 0 {
		t.Fatalf("left float x = %d", lx)
	}
	if rx+rw != 1000 {
		t.Fatalf("right float edge = %d, want 1000", rx+rw)
	}
	if res.Height != 60 {
		t.Fatalf("container height = %d, want float height", res.Height)
	}
}

func TestFloatTwoPaneCraigslist(t *testing.T) {
	// The §4.5 adapted layout: listing pane left, detail pane right.
	res := doLayout(t, `<html><head><style>
		#listings { float: left; width: 44%; height: 700px }
		#pane { float: right; width: 52%; height: 700px }
	</style></head><body>
		<div id="listings"><p>ad one</p><p>ad two</p></div>
		<div id="pane"><p>detail</p></div>
	</body></html>`, 1000)
	lx, ly, lw, _, _ := regionByID(t, res, "listings")
	px, py, pw, _, _ := regionByID(t, res, "pane")
	if ly != py {
		t.Fatal("panes not side by side")
	}
	if lw != 440 || pw != 520 {
		t.Fatalf("pane widths = %d, %d", lw, pw)
	}
	if lx+lw > px {
		t.Fatalf("panes overlap: left ends %d, right starts %d", lx+lw, px)
	}
}

func TestFloatWithoutWidthFallsBack(t *testing.T) {
	// A widthless float degrades to a normal full-width block.
	res := doLayout(t, `<html><body>
		<div id="f" style="float: left; height: 20px"></div>
		<div id="next" style="height: 10px"></div>
	</body></html>`, 600)
	_, _, fw, _, _ := regionByID(t, res, "f")
	if fw != 600 {
		t.Fatalf("widthless float w = %d", fw)
	}
	_, nextY, _, _, _ := regionByID(t, res, "next")
	if nextY != 20 {
		t.Fatalf("next y = %d", nextY)
	}
}

func TestFloatTextClears(t *testing.T) {
	res := doLayout(t, `<html><body>
		<div id="f" style="float: left; width: 100px; height: 40px"></div>
		plain text after the float
	</body></html>`, 600)
	runs := slices.Collect(res.Runs())
	if len(runs) == 0 {
		t.Fatal("no text")
	}
	if runs[0].Y < 40 {
		t.Fatalf("text at Y=%v should clear the float", runs[0].Y)
	}
}

func TestFloatRunsShifted(t *testing.T) {
	res := doLayout(t, `<html><body>
		<div style="float: left; width: 100px; height: 30px"></div>
		<div id="f2" style="float: left; width: 200px; height: 30px"><p>inside</p></div>
	</body></html>`, 600)
	// The second float's text must be shifted along with its box.
	runs := slices.Collect(res.Runs())
	if len(runs) != 1 {
		t.Fatalf("runs = %d", len(runs))
	}
	if runs[0].X < 100 {
		t.Fatalf("run X = %v, want shifted right of first float", runs[0].X)
	}
}
