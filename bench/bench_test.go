package main

import (
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"msite/internal/device"
)

// TestMain lets the test binary be the SUT: spawnSUT re-executes
// os.Executable() with childEnv set, and that child runs main's dispatch
// instead of the tests.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) != "" {
		main()
		return
	}
	os.Exit(m.Run())
}

// tinyOptions is one round of two views: enough to cross every code path
// of a run in about a second.
func tinyOptions(t *testing.T, traced bool) options {
	o := defaultOptions()
	o.seconds = 0
	o.traced = traced
	o.setups = 1
	o.warmup = false
	o.block = [][2]string{{"forums", "login"}, {"nav", "forums"}}
	o.blocksPerRound = 1
	o.population = 4
	o.retireWindow = 2
	o.censusViews = 1
	o.workDir = t.TempDir()
	o.outDir = t.TempDir()
	return o
}

func checkMetrics(t *testing.T, res *result, want []metricSpec) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
	for _, ms := range want {
		got, ok := res.Metrics[ms.Name]
		if !ok {
			t.Errorf("metric %s missing", ms.Name)
			continue
		}
		if got.Unit != ms.Unit {
			t.Errorf("metric %s has unit %q, BENCHMARK.json says %q", ms.Name, got.Unit, ms.Unit)
		}
		if math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
			t.Errorf("metric %s is %v", ms.Name, got.Value)
		}
	}
	if len(res.Metrics) != len(want) {
		t.Errorf("run reported %d metrics, BENCHMARK.json lists %d", len(res.Metrics), len(want))
	}
}

func TestEveryWorkloadReportsEveryEndToEndMetric(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			res, err := runWorkload(w, tinyOptions(t, false))
			if err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, res, spec.EndToEnd)
			for _, ms := range spec.EndToEnd {
				if res.Metrics[ms.Name].Value <= 0 {
					t.Errorf("end-to-end metric %s is %v, must never be 0", ms.Name, res.Metrics[ms.Name].Value)
				}
			}
		})
	}
}

func TestEveryWorkloadReportsEveryLayerMetric(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			o := tinyOptions(t, true)
			res, err := runTraced(w, o)
			if err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, res, spec.PerLayer)
			spans, err := readTrace(filepath.Join(o.outDir, "trace-"+w.name+".json"))
			if err != nil {
				t.Fatal(err)
			}
			self := selfByName(spans)
			for _, name := range append([]string{"view", "replay", "proxy.asset_304"}, pipelineSpans...) {
				if len(self[name]) == 0 {
					t.Errorf("trace file has no %s span", name)
				}
			}
		})
	}
}

func TestSpecMatchesHarness(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the harness %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the harness", i, spec.Workloads[i].Name, w.name)
		}
	}
	if float64(spec.RunSeconds) != defaultOptions().seconds {
		t.Errorf("run_seconds %d, default --seconds %v", spec.RunSeconds, defaultOptions().seconds)
	}
}

func TestMedianOfRounds(t *testing.T) {
	// One disturbed round moves the pooled median but not the median of
	// the round medians.
	rounds := [][]float64{{1, 2, 3}, {2, 2, 2}, {40, 50, 60, 70, 80, 90, 100}}
	if got := medianOfRounds(rounds); got != 2 {
		t.Errorf("medianOfRounds = %v, want 2", got)
	}
	if got := medianOfRounds(nil); got != 0 {
		t.Errorf("medianOfRounds(nil) = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{5, 50}, {19, 50}, {20, 50}, {100, 90}, {199, 90}, {200, 95}, {1000, 99}, {9999, 99}, {10000, 99.9}, {100000, 99.99}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if got := percentile(xs, 90); got != 90 {
		t.Errorf("p90 of 1..100 = %v, want 90 (ten samples beyond it)", got)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([3,1,4,1,5,9,2,6,5,3], n=4) == [1.75, 3.5, 5.25]
	q1, q2, q3 := quartiles([]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3})
	if q1 != 1.75 || q2 != 3.5 || q3 != 5.25 {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
	if got := spreadPct([]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3}); got != 100 {
		t.Errorf("spreadPct = %v, want 100", got)
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{Name: "view", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 40, Parent: 0},
		{Name: "b", Start: 30, End: 60, Parent: 0},  // overlaps a: covered once
		{Name: "c", Start: 90, End: 120, Parent: 0}, // clipped to the parent
		{Name: "a.inner", Start: 15, End: 20, Parent: 1},
	}
	want := []int64{100 - (50 + 10), 30 - 5, 30, 30, 5}
	for i, got := range selfTimes(spans) {
		if got != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, got, want[i])
		}
	}
}

func TestTraceRoundTrip(t *testing.T) {
	tr := newTracer()
	root := tr.begin("view", -1, 7)
	id := tr.begin("proxy.asset", root, 7)
	tr.end(id, "proxy.asset_304")
	tr.end(root, "")
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := writeTrace(path, tr.snapshot()); err != nil {
		t.Fatal(err)
	}
	spans, err := readTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) != 2 || spans[1].Name != "proxy.asset_304" || spans[1].Parent != 0 || spans[1].View != 7 {
		t.Errorf("spans came back as %+v", spans)
	}
	var off *tracer
	off.end(off.begin("x", -1, 0), "")
	off.note("x", 1)
}

func TestModel3GHandComputed(t *testing.T) {
	v := view{
		wire: 37500, requests: 5,
		delivered: device.PageComplexity{Elements: 100, Scripts: 1, Images: 2, StyleRules: 10},
	}
	// 3G: ceil(5/2) round trips of 300 ms + 37500 B at 300 kbit/s = 900 + 1000 ms.
	// iPhone 4: (37500*300ns + 100*350us + 25ms + 2*4ms + 10*120us) * 2.6 = 80.45 ms * 2.6.
	want := 1900*time.Millisecond + time.Duration(80.45*2.6*float64(time.Millisecond))
	if got := v.model3G(); got != want {
		t.Errorf("model3G = %v, want %v", got, want)
	}
}

func TestBlockKeepsTheWeights(t *testing.T) {
	count := map[string]int{}
	for _, pair := range shuffledBlock(viewBlock, rand.New(rand.NewSource(7))) {
		count[pair[0]]++
		count[pair[1]]++
	}
	if count["forums"] != 12 || count["login"] != 6 || count["nav"] != 2 {
		t.Errorf("a block opens %v, want forums 12, login 6, nav 2", count)
	}
}

func TestSerialWaves(t *testing.T) {
	at := func(ms int) time.Time { return time.Unix(0, int64(ms)*1e6) }
	hits := []originHit{
		{start: at(50), end: at(90)}, // overlaps nothing before it
		{start: at(0), end: at(40)},
		{start: at(10), end: at(45)}, // same wave as the first
		{start: at(95), end: at(99)},
	}
	if got := serialWaves(hits); got != 3 {
		t.Errorf("serialWaves = %d, want 3", got)
	}
}
