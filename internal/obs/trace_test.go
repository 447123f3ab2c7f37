package obs

import (
	"context"
	"fmt"
	"regexp"
	"sync"
	"testing"
	"time"
)

func TestTraceSpansRecorded(t *testing.T) {
	r := NewRegistry()
	ctx, tr := r.StartTrace(context.Background(), "entry")
	tr.Annotate("session", "abc123")

	sp := StartSpan(ctx, "fetch")
	time.Sleep(time.Millisecond)
	sp.End()
	sp = StartSpan(ctx, "attr")
	sp.End()
	d := tr.End()
	if d <= 0 {
		t.Fatal("trace duration not positive")
	}

	traces := r.RecentTraces()
	if len(traces) != 1 {
		t.Fatalf("traces = %d, want 1", len(traces))
	}
	rec := traces[0]
	if rec.Name != "entry" || len(rec.Spans) != 2 {
		t.Fatalf("trace = %+v", rec)
	}
	if rec.Spans[0].Name != "fetch" || rec.Spans[1].Name != "attr" {
		t.Fatalf("span order = %v, %v", rec.Spans[0].Name, rec.Spans[1].Name)
	}
	if rec.Attrs["session"] != "abc123" {
		t.Fatalf("attrs = %v", rec.Attrs)
	}
	if rec.Spans[0].DurationMS <= 0 {
		t.Fatal("span duration not recorded")
	}

	// Span durations feed the per-stage histogram.
	h, ok := r.Snapshot().Histogram(StageHistogram, "stage", "fetch")
	if !ok || h.Count != 1 {
		t.Fatalf("stage histogram = %+v ok=%v", h, ok)
	}
}

func TestSpanWithoutTraceIsInert(t *testing.T) {
	sp := StartSpan(context.Background(), "fetch")
	if d := sp.End(); d < 0 {
		t.Fatal("negative duration")
	}
}

func TestTraceEndIdempotent(t *testing.T) {
	r := NewRegistry()
	_, tr := r.StartTrace(context.Background(), "entry")
	tr.End()
	tr.End()
	if got := len(r.RecentTraces()); got != 1 {
		t.Fatalf("traces = %d, want 1 after double End", got)
	}
}

func TestTraceRingBounded(t *testing.T) {
	r := NewRegistry()
	total := DefaultTraceCapacity + 10
	for i := 0; i < total; i++ {
		_, tr := r.StartTrace(context.Background(), fmt.Sprintf("t%d", i))
		tr.End()
	}
	traces := r.RecentTraces()
	if len(traces) != DefaultTraceCapacity {
		t.Fatalf("ring holds %d, want %d", len(traces), DefaultTraceCapacity)
	}
	if traces[0].Name != fmt.Sprintf("t%d", total-1) {
		t.Fatalf("most recent = %s, want t%d", traces[0].Name, total-1)
	}
	if traces[len(traces)-1].Name != fmt.Sprintf("t%d", total-DefaultTraceCapacity) {
		t.Fatalf("oldest = %s", traces[len(traces)-1].Name)
	}
}

func TestTraceIDsAssignedAndUnique(t *testing.T) {
	r := NewRegistry()
	seen := make(map[string]bool)
	for i := 0; i < 100; i++ {
		_, tr := r.StartTrace(context.Background(), "entry")
		id := tr.ID()
		if len(id) != 16 {
			t.Fatalf("trace ID %q, want 16 hex chars", id)
		}
		if seen[id] {
			t.Fatalf("duplicate trace ID %q", id)
		}
		seen[id] = true
		tr.End()
	}
	for _, rec := range r.RecentTraces() {
		if !seen[rec.ID] {
			t.Fatalf("ring trace carries unknown ID %q", rec.ID)
		}
	}
	var nilTrace *Trace
	if nilTrace.ID() != "" {
		t.Fatal("nil trace ID not empty")
	}
}

func TestConcurrentTraces(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				ctx, tr := r.StartTrace(context.Background(), "entry")
				sp := StartSpan(ctx, "fetch")
				sp.End()
				tr.Annotate("worker", fmt.Sprint(w))
				tr.End()
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			_ = r.RecentTraces()
		}
	}()
	wg.Wait()
	if h, ok := r.Snapshot().Histogram(StageHistogram, "stage", "fetch"); !ok || h.Count != 8*50 {
		t.Fatalf("stage observations = %+v", h)
	}
}

// TestTraceIDFormat: an ID is 16 lowercase hex digits, zero-padded for
// small values.
func TestTraceIDFormat(t *testing.T) {
	hex16 := regexp.MustCompile(`^[0-9a-f]{16}$`)
	for v, want := range map[uint64]string{
		0:                  "0000000000000000",
		1:                  "0000000000000001",
		0xabc:              "0000000000000abc",
		0x0123456789abcdef: "0123456789abcdef",
		^uint64(0):         "ffffffffffffffff",
	} {
		if got := formatTraceID(v); got != want {
			t.Errorf("formatTraceID(%#x) = %q, want %q", v, got, want)
		}
	}
	for i := 0; i < 100; i++ {
		if id := newTraceID(); !hex16.MatchString(id) {
			t.Fatalf("trace ID %q does not match %s", id, hex16)
		}
	}
}

// TestTraceAllocations: a trace with no spans costs its Trace, its ID and
// its context — 3 allocations, 5 when the ID went through fmt and End
// sorted every span list through sort.Slice.
func TestTraceAllocations(t *testing.T) {
	r := NewRegistry()
	allocs := testing.AllocsPerRun(1000, func() {
		_, tr := r.StartTrace(context.Background(), "entry")
		tr.End()
	})
	t.Logf("StartTrace+End: %v allocations", allocs)
	if allocs > 3 {
		t.Fatalf("StartTrace+End allocates %v times, want ≤ 3", allocs)
	}
}

// TestAnnotateAfterEndIsDropped: a record is fixed when its trace ends;
// a late annotation changes neither it nor the trace's attributes.
func TestAnnotateAfterEndIsDropped(t *testing.T) {
	r := NewRegistry()
	_, tr := r.StartTrace(context.Background(), "entry")
	tr.Annotate("cache", "hit")
	tr.End()
	tr.Annotate("cache", "late")
	tr.Annotate("error", "late")
	if rec := r.RecentTraces()[0]; len(rec.Attrs) != 1 || rec.Attrs["cache"] != "hit" {
		t.Fatalf("record attrs = %v", rec.Attrs)
	}
	if attrs := tr.Attrs(); len(attrs) != 1 || attrs["cache"] != "hit" {
		t.Fatalf("trace attrs = %v", attrs)
	}
}
