package experiments

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"msite/internal/origin"
)

func originServer(t *testing.T) *httptest.Server {
	t.Helper()
	forum := origin.NewForum(origin.DefaultForumConfig())
	srv := httptest.NewServer(forum.Handler())
	t.Cleanup(srv.Close)
	return srv
}

func TestProfilePage(t *testing.T) {
	srv := originServer(t)
	p, err := ProfilePage(srv.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	if p.TotalBytes < 100_000 || p.Requests < 20 {
		t.Fatalf("profile = %+v", p)
	}
	if p.Complexity.Scripts != 12 {
		t.Fatalf("scripts = %d", p.Complexity.Scripts)
	}
}

// TestTable1Shape asserts the reproduction preserves the paper's shape:
// mobile direct ≫ cached snapshot, desktop ≪ mobile, WiFi ≪ 3G, and
// the measured snapshot generation is server-fast.
func TestTable1Shape(t *testing.T) {
	srv := originServer(t)
	rows, err := Table1(srv.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("rows = %d", len(rows))
	}
	byLabel := map[string]Table1Row{}
	for _, r := range rows {
		byLabel[r.Label] = r
		if r.Measured <= 0 {
			t.Fatalf("row %q non-positive", r.Label)
		}
	}
	bbDirect := byLabel["BlackBerry Tour browser page load"].Measured
	bbSnap := byLabel["Cached snapshot page to BlackBerry"].Measured
	iphone3G := byLabel["iPhone 4 via 3G"].Measured
	iphoneWiFi := byLabel["iPhone 4 via WiFi"].Measured
	desktop := byLabel["Desktop browser page load"].Measured
	snapGen := byLabel["Snapshot page generation"].Measured

	if bbDirect < 10*time.Second || bbDirect > 40*time.Second {
		t.Fatalf("BlackBerry direct = %v, paper 20 s", bbDirect)
	}
	if factor := float64(bbDirect) / float64(bbSnap); factor < 3 || factor > 20 {
		t.Fatalf("direct/snapshot = %.1f, paper 20s/5s = 4", factor)
	}
	if iphone3G <= iphoneWiFi {
		t.Fatal("3G should exceed WiFi")
	}
	if desktop >= iphoneWiFi {
		t.Fatal("desktop should beat iPhone WiFi")
	}
	if desktop < 500*time.Millisecond || desktop > 4*time.Second {
		t.Fatalf("desktop = %v, paper 1.5 s", desktop)
	}
	// Snapshot generation is real server work: fast but non-trivial.
	if snapGen > 5*time.Second {
		t.Fatalf("snapshot generation = %v", snapGen)
	}
	out := FormatTable1(rows)
	if !strings.Contains(out, "BlackBerry Tour") || !strings.Contains(out, "simulated") {
		t.Fatalf("format: %s", out)
	}
}

func TestFigure7SmallSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	srv := originServer(t)
	// The windows are compared with each other, so they must all see the
	// same process: in a fresh one the first browser renders run at a
	// fraction of the steady rate while the heap is still being mapped,
	// which slowed the 50% window (measured before the 100% one) enough
	// to tie with it. One unmeasured window of renders comes first.
	if _, err := Figure7(Fig7Config{
		OriginURL: srv.URL + "/", Window: 150 * time.Millisecond, Percentages: []float64{100}, Reps: 1,
	}); err != nil {
		t.Fatal(err)
	}
	// The 50% point draws its marks from a fixed seed whose first ten ask
	// for seven browser renders, so a window must hold many more requests
	// than that to show the mix. 500 ms completed ~16 renders alone but 5
	// to 7 beside the other packages' tests in `go test ./...`, where the
	// 50% and 100% points tied about one run in two (at 250 ms alone,
	// one in five); 1.5 s holds three times as many.
	points, err := Figure7(Fig7Config{
		OriginURL:   srv.URL + "/",
		Window:      1500 * time.Millisecond,
		Percentages: []float64{0, 50, 100},
		Reps:        1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 3 {
		t.Fatalf("points = %d", len(points))
	}
	if !(points[0].ReqPerMin > points[1].ReqPerMin && points[1].ReqPerMin > points[2].ReqPerMin) {
		t.Fatalf("throughput not decreasing in browser%%: %+v", points)
	}
	if ratio := points[0].ReqPerMin / points[2].ReqPerMin; ratio < 10 {
		t.Fatalf("0%%/100%% ratio = %.1f", ratio)
	}
	out := FormatFig7(points)
	if !strings.Contains(out, "req/min") || !strings.Contains(out, "ratio") {
		t.Fatalf("format: %s", out)
	}
}

func TestImageFidelityLadder(t *testing.T) {
	srv := originServer(t)
	rows, err := ImageFidelity(srv.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	// The §3.3 shape: a high-fidelity full-page PNG of hundreds of KB
	// (paper: ≈600 KB) whose scaled reduced-fidelity form lands in the
	// paper's 25–50 KB band, a ≥8x reduction.
	high, thumb := rows[0].Bytes, rows[3].Bytes
	if high < 300_000 || high > 2_000_000 {
		t.Fatalf("high = %d bytes, want ≈600 KB scale", high)
	}
	if thumb < 15_000 || thumb > 80_000 {
		t.Fatalf("thumb = %d bytes, want paper's 25–50 KB band", thumb)
	}
	if high < thumb*8 {
		t.Fatalf("high=%d thumb=%d, want ≥8x reduction", high, thumb)
	}
	// Ladder ordering within the JPEG family.
	if !(rows[1].Bytes > rows[2].Bytes && rows[2].Bytes > rows[3].Bytes) {
		t.Fatalf("jpeg ladder not monotone: %+v", rows)
	}
	out := FormatFidelity(rows)
	if !strings.Contains(out, "high") {
		t.Fatal("format wrong")
	}
}

func TestPreRenderSpeedup(t *testing.T) {
	srv := originServer(t)
	res, err := PreRenderSpeedup(srv.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	// Paper: "reduce wall-clock load time by a factor of 5" (Table 1:
	// 20 s → 5 s = 4x). Accept 3–20x.
	if res.Factor < 3 || res.Factor > 20 {
		t.Fatalf("speedup = %.1fx", res.Factor)
	}
}

func TestMeasurePageWeight(t *testing.T) {
	srv := originServer(t)
	w, err := MeasurePageWeight(srv.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	if w.TotalBytes < 145_000 || w.TotalBytes > 305_000 {
		t.Fatalf("bytes = %d, paper 224,477", w.TotalBytes)
	}
	if w.Scripts != 12 {
		t.Fatalf("scripts = %d, paper ~12", w.Scripts)
	}
	if !strings.Contains(FormatPageWeight(w), "total bytes") {
		t.Fatal("format wrong")
	}
}

func TestCacheAblation(t *testing.T) {
	srv := originServer(t)
	row, err := CacheAblation(srv.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	if row.Baseline < row.Variant*10 {
		t.Fatalf("render %v should dwarf cache hit %v", row.Baseline, row.Variant)
	}
}

func TestSpecForForumValid(t *testing.T) {
	sp := SpecForForum("http://origin.test")
	if err := sp.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(sp.Objects) != 7 || len(sp.Actions) != 1 {
		t.Fatalf("spec shape: %d objects, %d actions", len(sp.Objects), len(sp.Actions))
	}
}

func TestErrorPropagation(t *testing.T) {
	if _, err := Table1("http://127.0.0.1:1/"); err == nil {
		t.Fatal("dead origin accepted")
	}
	if _, err := ImageFidelity("http://127.0.0.1:1/"); err == nil {
		t.Fatal("dead origin accepted")
	}
	if _, err := MeasurePageWeight("http://127.0.0.1:1/"); err == nil {
		t.Fatal("dead origin accepted")
	}
}

// TestSpecForClassifiedsValid keeps the shared classifieds spec loadable
// by the same validator real spec files go through.
func TestSpecForClassifiedsValid(t *testing.T) {
	sp := SpecForClassifieds("http://origin.example")
	if err := sp.Validate(); err != nil {
		t.Fatalf("classifieds spec invalid: %v", err)
	}
}

func TestLatencyHandler(t *testing.T) {
	const delay = 20 * time.Millisecond
	h := LatencyHandler(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusNoContent)
	}), delay)
	srv := httptest.NewServer(h)
	defer srv.Close()

	start := time.Now()
	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if elapsed := time.Since(start); elapsed < delay {
		t.Fatalf("request returned in %v, want >= %v", elapsed, delay)
	}
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("status = %d", resp.StatusCode)
	}
}
