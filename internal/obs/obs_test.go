package obs

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterIdentity(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("msite_requests_total", "handler", "entry")
	b := r.Counter("msite_requests_total", "handler", "entry")
	if a != b {
		t.Fatal("same name+labels produced distinct counters")
	}
	c := r.Counter("msite_requests_total", "handler", "subpage")
	if a == c {
		t.Fatal("distinct labels share a counter")
	}
	a.Inc()
	a.Add(2)
	if got := b.Value(); got != 3 {
		t.Fatalf("counter = %d, want 3", got)
	}
	if got := c.Value(); got != 0 {
		t.Fatalf("other label counter = %d, want 0", got)
	}
}

func TestLabelOrderCanonical(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("m", "x", "1", "y", "2")
	b := r.Counter("m", "y", "2", "x", "1")
	if a != b {
		t.Fatal("label order changed metric identity")
	}
}

func TestGauge(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("msite_sessions_live")
	g.Set(5)
	g.Add(-2)
	if got := g.Value(); got != 3 {
		t.Fatalf("gauge = %v, want 3", got)
	}
}

func TestGaugeFunc(t *testing.T) {
	r := NewRegistry()
	n := 7
	r.GaugeFunc("msite_live", func() float64 { return float64(n) })
	snap := r.Snapshot()
	if len(snap.Gauges) != 1 || snap.Gauges[0].Value != 7 {
		t.Fatalf("gauge func snapshot = %+v", snap.Gauges)
	}
	n = 9
	if got := r.Snapshot().Gauges[0].Value; got != 9 {
		t.Fatalf("gauge func not live: %v", got)
	}
}

func TestTypeConflictPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("m")
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on type conflict")
		}
	}()
	r.Gauge("m")
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.HistogramBuckets("lat", []float64{1, 2, 4})
	for _, v := range []float64{0.5, 1.0, 1.5, 3.0, 10.0} {
		h.Observe(v)
	}
	st := h.snapshot()
	if st.Count != 5 {
		t.Fatalf("count = %d, want 5", st.Count)
	}
	if math.Abs(st.Sum-16.0) > 1e-9 {
		t.Fatalf("sum = %v, want 16", st.Sum)
	}
	// Cumulative: le=1 → {0.5, 1.0}; le=2 → +{1.5}; le=4 → +{3.0};
	// +Inf → +{10.0}.
	want := []uint64{2, 3, 4, 5}
	if len(st.Buckets) != 4 {
		t.Fatalf("buckets = %d, want 4", len(st.Buckets))
	}
	for i, w := range want {
		if st.Buckets[i].Count != w {
			t.Fatalf("bucket[%d] = %d, want %d", i, st.Buckets[i].Count, w)
		}
	}
	if !math.IsInf(st.Buckets[3].UpperBound, 1) {
		t.Fatalf("last bound = %v, want +Inf", st.Buckets[3].UpperBound)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	r := NewRegistry()
	h := r.HistogramBuckets("lat", []float64{10, 20, 40})
	// 10 observations in (0,10], 10 in (10,20].
	for i := 0; i < 10; i++ {
		h.Observe(5)
		h.Observe(15)
	}
	st := h.snapshot()
	// rank(p50) = 10 → exactly fills bucket (0,10]: interpolates to 10.
	if math.Abs(st.P50-10) > 1e-9 {
		t.Fatalf("p50 = %v, want 10", st.P50)
	}
	// rank(p90) = 18 → 8/10 into (10,20] → 18.
	if math.Abs(st.P90-18) > 1e-9 {
		t.Fatalf("p90 = %v, want 18", st.P90)
	}
	// rank(p99) = 19.8 → 9.8/10 into (10,20] → 19.8.
	if math.Abs(st.P99-19.8) > 1e-9 {
		t.Fatalf("p99 = %v, want 19.8", st.P99)
	}
}

func TestHistogramQuantileOverflowClamps(t *testing.T) {
	r := NewRegistry()
	h := r.HistogramBuckets("lat", []float64{1})
	h.Observe(100)
	st := h.snapshot()
	if st.P99 != 1 {
		t.Fatalf("p99 = %v, want clamp to 1", st.P99)
	}
}

func TestHistogramEmptyQuantile(t *testing.T) {
	r := NewRegistry()
	st := r.Histogram("lat").snapshot()
	if st.P50 != 0 || st.P99 != 0 {
		t.Fatalf("empty histogram quantiles = %v/%v, want 0", st.P50, st.P99)
	}
}

func TestObserveDuration(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat")
	h.ObserveDuration(30 * time.Millisecond)
	st := h.snapshot()
	if st.Count != 1 || math.Abs(st.Sum-0.03) > 1e-9 {
		t.Fatalf("duration observed as count=%d sum=%v", st.Count, st.Sum)
	}
}

// TestConcurrentWritesAndSnapshots is the race-detector guard for the
// atomic metric internals: many writers, concurrent scrapes.
func TestConcurrentWritesAndSnapshots(t *testing.T) {
	r := NewRegistry()
	const workers, iters = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("msite_requests_total", "handler", "entry")
			h := r.Histogram("msite_stage_seconds", "stage", "fetch")
			g := r.Gauge("msite_live")
			for i := 0; i < iters; i++ {
				c.Inc()
				h.Observe(float64(i%100) / 1000)
				g.Add(1)
			}
		}()
	}
	// Scrape while writing.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			_ = r.Snapshot()
		}
	}()
	wg.Wait()

	snap := r.Snapshot()
	c, ok := snap.Counter("msite_requests_total", "handler", "entry")
	if !ok || c.Value != workers*iters {
		t.Fatalf("counter = %+v, want %d", c, workers*iters)
	}
	h, ok := snap.Histogram("msite_stage_seconds", "stage", "fetch")
	if !ok || h.Count != workers*iters {
		t.Fatalf("histogram count = %d, want %d", h.Count, workers*iters)
	}
}

func TestLabelCardinalityCap(t *testing.T) {
	r := NewRegistry()
	r.SetLabelCardinality(3)
	for i := 0; i < 10; i++ {
		r.Counter("msite_origin_requests_total", "origin", fmt.Sprintf("site-%d", i)).Inc()
	}
	snap := r.Snapshot()
	values := map[string]uint64{}
	for _, c := range snap.Counters {
		if c.Name == "msite_origin_requests_total" {
			values[c.Label("origin")] += c.Value
		}
	}
	if len(values) != 4 {
		t.Fatalf("series values = %v, want 3 distinct + %q", values, OverflowLabelValue)
	}
	if values[OverflowLabelValue] != 7 {
		t.Fatalf("overflow bucket = %d, want 7", values[OverflowLabelValue])
	}
	for i := 0; i < 3; i++ {
		if values[fmt.Sprintf("site-%d", i)] != 1 {
			t.Fatalf("pre-cap value site-%d = %v", i, values)
		}
	}
}

func TestLabelCardinalityPerKeyAndFamily(t *testing.T) {
	r := NewRegistry()
	r.SetLabelCardinality(2)
	// The cap is per (family, key): a second family gets its own budget.
	r.Counter("fam_a", "k", "v1").Inc()
	r.Counter("fam_a", "k", "v2").Inc()
	r.Counter("fam_a", "k", "v3").Inc() // over fam_a's budget
	r.Counter("fam_b", "k", "v3").Inc() // fresh budget
	snap := r.Snapshot()
	var aOther, bOther bool
	for _, c := range snap.Counters {
		if c.Name == "fam_a" && c.Label("k") == OverflowLabelValue {
			aOther = true
		}
		if c.Name == "fam_b" && c.Label("k") == OverflowLabelValue {
			bOther = true
		}
	}
	if !aOther {
		t.Fatal("fam_a's third value not bucketed as overflow")
	}
	if bOther {
		t.Fatal("fam_b's first value wrongly bucketed")
	}
}

func TestLabelCardinalityUnlimited(t *testing.T) {
	r := NewRegistry()
	r.SetLabelCardinality(-1)
	for i := 0; i < DefaultLabelCardinality+10; i++ {
		r.Counter("m", "k", fmt.Sprintf("v%d", i)).Inc()
	}
	snap := r.Snapshot()
	n := 0
	for _, c := range snap.Counters {
		if c.Name == "m" {
			n++
			if c.Label("k") == OverflowLabelValue {
				t.Fatal("unlimited registry bucketed a value")
			}
		}
	}
	if n != DefaultLabelCardinality+10 {
		t.Fatalf("series = %d, want %d", n, DefaultLabelCardinality+10)
	}
}

func TestLabelCardinalityConcurrent(t *testing.T) {
	r := NewRegistry()
	r.SetLabelCardinality(8)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				r.Counter("m", "k", fmt.Sprintf("v%d", i%20)).Inc()
				r.Gauge("g", "k", fmt.Sprintf("v%d", i%20)).Set(1)
			}
		}(w)
	}
	wg.Wait()
	snap := r.Snapshot()
	var total uint64
	distinct := map[string]bool{}
	for _, c := range snap.Counters {
		if c.Name == "m" {
			total += c.Value
			distinct[c.Label("k")] = true
		}
	}
	if total != 8*100 {
		t.Fatalf("total = %d, want %d (no increments lost to capping)", total, 8*100)
	}
	if len(distinct) > 9 {
		t.Fatalf("distinct values = %d, want <= cap+overflow", len(distinct))
	}
}

// TestMetricIDQuotesLikeFmt: a series identity keys the registry and
// orders the exposition, so it spells every label value exactly as %q
// did when fmt built it — quotes, backslashes, control characters,
// non-ASCII text and invalid UTF-8 included.
func TestMetricIDQuotesLikeFmt(t *testing.T) {
	for _, labels := range [][]Label{
		nil,
		{{"handler", "entry"}},
		{{"handler", "entry"}, {"site", "sawdust"}},
		{{"k", `say "hi"`}},
		{{"k", `C:\path\`}},
		{{"k", "line\nbreak\ttab\r"}},
		{{"k", "naïve 日本 \u2028"}},
		{{"k", "bad \xff\xfe utf-8"}},
		{{"k", ""}, {"z", "\x00\x7f"}},
	} {
		want := "m"
		if len(labels) > 0 {
			parts := make([]string, len(labels))
			for i, l := range labels {
				parts[i] = fmt.Sprintf("%s=%q", l.Key, l.Value)
			}
			want += "{" + strings.Join(parts, ",") + "}"
		}
		if got := string(appendMetricID(nil, "m", labels)); got != want {
			t.Errorf("id of %q = %s, want %s", labels, got, want)
		}
	}
}

// TestCounterRelookupAllocations: looking up a registered series builds
// its labels and identity on the stack. A 2-label counter cost 13
// allocations a lookup when the identity went through fmt, sort.Slice and
// a concatenated cardinality key; it now costs none.
func TestCounterRelookupAllocations(t *testing.T) {
	r := NewRegistry()
	want := r.Counter("msite_proxy_requests_total", "handler", "entry", "site", "sawdust")
	var got *Counter
	allocs := testing.AllocsPerRun(1000, func() {
		got = r.Counter("msite_proxy_requests_total", "site", "sawdust", "handler", "entry")
		got.Inc()
	})
	t.Logf("re-looking up a 2-label counter: %v allocations", allocs)
	if got != want {
		t.Fatal("re-lookup returned another counter")
	}
	if allocs > 4 {
		t.Fatalf("re-looking up a 2-label counter allocates %v times, want ≤ 4", allocs)
	}
	h := r.Histogram("msite_http_request_seconds", "handler", "entry")
	if allocs := testing.AllocsPerRun(1000, func() {
		r.Histogram("msite_http_request_seconds", "handler", "entry").Observe(0.001)
	}); allocs > 2 {
		t.Fatalf("re-looking up a 1-label histogram allocates %v times, want ≤ 2", allocs)
	}
	if h.Count() == 0 {
		t.Fatal("re-lookup observed into another histogram")
	}
}
