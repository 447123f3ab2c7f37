package obs

import (
	"context"
	"fmt"
	"log/slog"
	"maps"
	"reflect"
	"regexp"
	"slices"
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
		var b [16]byte
		if putTraceID(&b, v); string(b[:]) != want {
			t.Errorf("putTraceID(%#x) = %q, want %q", v, b[:], want)
		}
	}
	r := NewRegistry()
	for i := 0; i < 100; i++ {
		if _, tr := r.StartTrace(context.Background(), "entry"); !hex16.MatchString(tr.ID()) {
			t.Fatalf("trace ID %q does not match %s", tr.ID(), hex16)
		}
	}
}

// TestTraceAllocations: a trace with no spans costs its Trace, which is
// also its context and holds its ID: 1 allocation, 3 while the ID was a
// string and the context a context.WithValue of their own, and 5 when
// the ID went through fmt and End sorted every span list through
// sort.Slice. An annotation costs nothing more while the trace has room
// for it inline.
func TestTraceAllocations(t *testing.T) {
	r := NewRegistry()
	allocs := testing.AllocsPerRun(1000, func() {
		_, tr := r.StartTrace(context.Background(), "entry")
		tr.Annotate("session", "abc123")
		tr.Annotate("cache", "hit")
		tr.End()
	})
	t.Logf("StartTrace+Annotate×2+End: %v allocations", allocs)
	if allocs > 1 {
		t.Fatalf("StartTrace+Annotate×2+End allocates %v times, want ≤ 1", allocs)
	}
}

// TestTraceIsContext: a trace answers its own key and hands every other
// one to the context it was started under, also through contexts derived
// from it, and cancellation still reaches through it.
func TestTraceIsContext(t *testing.T) {
	type key struct{}
	parent, cancel := context.WithCancel(context.WithValue(context.Background(), key{}, "v"))
	ctx, tr := NewRegistry().StartTrace(parent, "entry")
	child, stop := context.WithCancel(ctx)
	defer stop()
	if TraceFrom(ctx) != tr || TraceFrom(child) != tr {
		t.Fatal("TraceFrom lost the trace")
	}
	if ctx.Value(key{}) != "v" || child.Value(key{}) != "v" {
		t.Fatal("the trace hid its parent's values")
	}
	if TraceFrom(context.Background()) != nil {
		t.Fatal("TraceFrom found a trace in a bare context")
	}
	cancel()
	<-child.Done()
	if ctx.Err() != context.Canceled {
		t.Fatalf("trace context err = %v after its parent was cancelled", ctx.Err())
	}
}

// TestAnnotateLastWriteWins: a key annotated twice keeps the second
// value and its place, whether it is held inline or spilled.
func TestAnnotateLastWriteWins(t *testing.T) {
	r := NewRegistry()
	_, tr := r.StartTrace(context.Background(), "entry")
	for i := 0; i < inlineNotes+3; i++ {
		tr.Annotate(fmt.Sprint("k", i), "first")
	}
	tr.Annotate("k0", "second")
	tr.Annotate(fmt.Sprint("k", inlineNotes+1), "second")
	tr.End()
	attrs := r.RecentTraces()[0].Attrs
	if len(attrs) != inlineNotes+3 || attrs["k0"] != "second" || attrs[fmt.Sprint("k", inlineNotes+1)] != "second" || attrs["k1"] != "first" {
		t.Fatalf("attrs = %v", attrs)
	}
}

// TestAnnotateBeyondInlineRoom: more annotations than a trace holds
// inline are all kept, in the record and in Attrs.
func TestAnnotateBeyondInlineRoom(t *testing.T) {
	r := NewRegistry()
	_, tr := r.StartTrace(context.Background(), "entry")
	want := make(map[string]string)
	for i := 0; i < 3*inlineNotes; i++ {
		k, v := fmt.Sprint("key", i), fmt.Sprint("value", i)
		tr.Annotate(k, v)
		want[k] = v
	}
	if got := attrsOf(t, tr); !maps.Equal(got, want) {
		t.Fatalf("trace attrs = %v, want %v", got, want)
	}
	tr.End()
	if got := r.RecentTraces()[0].Attrs; !maps.Equal(got, want) {
		t.Fatalf("record attrs = %v, want %v", got, want)
	}
}

// TestSpanAfterEndIsDropped: a span that ends after its trace leaves the
// record as End fixed it.
func TestSpanAfterEndIsDropped(t *testing.T) {
	r := NewRegistry()
	ctx, tr := r.StartTrace(context.Background(), "entry")
	StartSpan(ctx, "fetch").End()
	late := StartSpan(ctx, "raster")
	tr.End()
	late.End()
	if spans := r.RecentTraces()[0].Spans; len(spans) != 1 || spans[0].Name != "fetch" {
		t.Fatalf("record spans = %+v", spans)
	}
}

// TestRecentTracesAreCopies: a reader that mutates a record it was given
// changes neither the ring nor what the next reader sees.
func TestRecentTracesAreCopies(t *testing.T) {
	r := NewRegistry()
	ctx, tr := r.StartTrace(context.Background(), "entry")
	StartSpan(ctx, "fetch").End()
	tr.Annotate("cache", "hit")
	tr.End()
	first := r.RecentTraces()[0]
	want := r.RecentTraces()[0]
	want.Attrs, want.Spans = maps.Clone(want.Attrs), slices.Clone(want.Spans)
	first.Attrs["cache"] = "mutated"
	first.Attrs["extra"] = "x"
	first.Spans[0].Name = "mutated"
	if got := r.RecentTraces()[0]; !reflect.DeepEqual(got, want) {
		t.Fatalf("after a reader's writes the ring serves %+v, want %+v", got, want)
	}
}

// TestConcurrentTraceRecording races annotations, span ends, the trace's
// End and ring reads that mutate what they read: the -race guard for a
// trace shared by a request and a build it joined.
func TestConcurrentTraceRecording(t *testing.T) {
	r := NewRegistry()
	for round := 0; round < 50; round++ {
		ctx, tr := r.StartTrace(context.Background(), "entry")
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < 2*inlineNotes; i++ {
					tr.Annotate(fmt.Sprint("k", i), fmt.Sprint(w))
					StartSpan(ctx, "stage").End()
				}
			}(w)
		}
		wg.Add(2)
		go func() {
			defer wg.Done()
			tr.End()
		}()
		go func() {
			defer wg.Done()
			_ = tr.AppendAttrs(nil)
			for _, rec := range r.RecentTraces() {
				for k := range rec.Attrs {
					rec.Attrs[k] = "reader"
				}
				for i := range rec.Spans {
					rec.Spans[i].Name = "reader"
				}
			}
		}()
		wg.Wait()
	}
	for _, rec := range r.RecentTraces() {
		for k, v := range rec.Attrs {
			if v == "reader" {
				t.Fatalf("a reader's write reached the ring: %s=%s", k, v)
			}
		}
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
	if attrs := attrsOf(t, tr); len(attrs) != 1 || attrs["cache"] != "hit" {
		t.Fatalf("trace attrs = %v", attrs)
	}
}

// attrsOf returns the attributes AppendAttrs appends for tr as a map,
// after checking that they follow what was already there, one a key, in
// key order.
func attrsOf(t *testing.T, tr *Trace) map[string]string {
	t.Helper()
	head := slog.String("request", "x")
	attrs := tr.AppendAttrs([]slog.Attr{head})
	if !attrs[0].Equal(head) {
		t.Fatalf("AppendAttrs changed what it appended to: %v", attrs[0])
	}
	out := make(map[string]string)
	for i, a := range attrs[1:] {
		if i > 0 && attrs[i].Key >= a.Key {
			t.Fatalf("attributes not in strict key order: %v", attrs[1:])
		}
		out[a.Key] = a.Value.String()
	}
	return out
}
