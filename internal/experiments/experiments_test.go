package experiments

import (
	"math"
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

// checkEntryCounts holds ServedEntry's two views to what the proxy must
// have done for each: the cold view one build and one snapshot render,
// the second device's view neither, and one shared-snapshot hit.
func checkEntryCounts(t *testing.T, cold, second *EntryView) {
	t.Helper()
	if cold.Stats.Adaptations != 1 || cold.Stats.SnapshotRenders != 1 {
		t.Errorf("cold view: %+v, want 1 adaptation and 1 snapshot render", cold.Stats)
	}
	if second.Stats.Adaptations != cold.Stats.Adaptations ||
		second.Stats.SnapshotRenders != cold.Stats.SnapshotRenders ||
		second.Stats.SnapshotHits != cold.Stats.SnapshotHits+1 {
		t.Errorf("second device's view: %+v after %+v, want +0 adaptations, +0 renders, +1 snapshot hit",
			second.Stats, cold.Stats)
	}
	if second.Complexity.Requests != 2 || second.Complexity.Images != 1 {
		t.Errorf("second device's view: %+v, want the entry and its snapshot", second.Complexity)
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
	if factor := float64(bbDirect) / float64(bbSnap); factor < 4 {
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
	cold, second, err := ServedEntry(srv.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	checkEntryCounts(t, cold, second)
}

// TestFigure7Counts holds the sweep to what the proxy did, not to how
// fast: every marked request ran a build or joined one, the shared
// snapshot served every view, and the endpoints mark none and all.
func TestFigure7Counts(t *testing.T) {
	srv := originServer(t)
	s, err := serveForum(srv.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	const window = 200 * time.Millisecond
	points, err := s.figure7(Fig7Config{Window: window, Percentages: []float64{0, 50, 100}, Reps: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 3 {
		t.Fatalf("points = %d", len(points))
	}
	for _, p := range points {
		if p.Builds+p.Coalesced != p.Marked {
			t.Errorf("%v%%: %d builds + %d coalesced, want the %d marked", p.BrowserPercent, p.Builds, p.Coalesced, p.Marked)
		}
	}
	// The clients' first views made the one render; a rebuild is shown
	// under the shared snapshot, as a live refresh is.
	if got := s.fw.ProxyStats().SnapshotRenders; got != 1 {
		t.Errorf("snapshot renders = %d, want the first view's 1", got)
	}
	if p := points[0]; p.Marked != 0 || p.Builds != 0 {
		t.Errorf("0%%: %+v, want nothing marked or built", p)
	}
	p := points[2]
	satisfied := p.ReqPerMin * float64(window) / float64(time.Minute)
	if p.Marked == 0 || math.Abs(float64(p.Marked)-satisfied) > 1e-6 {
		t.Errorf("100%%: %d marked of %.0f satisfied, want all of at least one", p.Marked, satisfied)
	}
	if out := FormatFig7(points); !strings.Contains(out, "coalesced") || !strings.Contains(out, "ratio") {
		t.Errorf("format: %s", out)
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
	// 20 s → 5 s = 4x).
	if res.Factor < 4 {
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
	checkEntryCounts(t, row.Baseline, row.Variant)
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
	if _, err := Figure7(Fig7Config{OriginURL: "http://127.0.0.1:1/", Window: time.Millisecond, Reps: 1}); err == nil {
		t.Fatal("dead origin accepted")
	}
	if _, err := CacheAblation("http://127.0.0.1:1/"); err == nil {
		t.Fatal("dead origin accepted")
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
