package obs

import (
	"cmp"
	"context"
	"math/rand/v2"
	"slices"
	"sync"
	"time"
)

// DefaultTraceCapacity bounds the ring buffer of recent traces.
const DefaultTraceCapacity = 128

// StageHistogram is the histogram family every span duration is recorded
// under, labeled by stage name.
const StageHistogram = "msite_stage_seconds"

// SpanRecord is one completed pipeline stage inside a trace.
type SpanRecord struct {
	// Name is the stage, e.g. "fetch", "attr", "raster".
	Name string `json:"name"`
	// OffsetMS is the span start relative to the trace start.
	OffsetMS float64 `json:"offset_ms"`
	// DurationMS is the span's wall-clock time.
	DurationMS float64 `json:"duration_ms"`
}

// TraceRecord is one finished request trace, as exposed by
// /debug/traces.
type TraceRecord struct {
	// ID is the request's trace ID, also returned to the client as the
	// X-MSite-Trace response header and attached to its log lines.
	ID string `json:"id"`
	// Name is the trace's request kind, e.g. "entry" or "subpage".
	Name string `json:"name"`
	// Start is when the request began.
	Start time.Time `json:"start"`
	// DurationMS is the request's total wall-clock time.
	DurationMS float64 `json:"duration_ms"`
	// Attrs are request annotations (session id, cache hit/miss, ...).
	Attrs map[string]string `json:"attrs,omitempty"`
	// Spans are the recorded stages in start order.
	Spans []SpanRecord `json:"spans,omitempty"`
}

// Trace accumulates the spans of one request. It is safe for concurrent
// annotation (the single-flight adaptation path can record spans from a
// goroutine other than the one that started the trace).
type Trace struct {
	reg   *Registry
	id    string
	name  string
	start time.Time

	mu    sync.Mutex
	spans []SpanRecord
	attrs map[string]string
	done  bool
}

type traceCtxKey struct{}

// newTraceID returns a 16-hex-digit request ID. math/rand/v2's global
// generator is seeded from OS entropy and safe for concurrent use;
// collisions within a 128-entry ring are vanishingly unlikely.
func newTraceID() string { return formatTraceID(rand.Uint64()) }

// formatTraceID spells v as 16 zero-padded lowercase hex digits.
func formatTraceID(v uint64) string {
	const digits = "0123456789abcdef"
	var b [16]byte
	for i := len(b) - 1; i >= 0; i-- {
		b[i] = digits[v&0xf]
		v >>= 4
	}
	return string(b[:])
}

// StartTrace begins a request trace (assigning it a fresh trace ID) and
// stores it in the returned context, from which StartSpan and TraceFrom
// recover it.
func (r *Registry) StartTrace(ctx context.Context, name string) (context.Context, *Trace) {
	t := &Trace{reg: r, id: newTraceID(), name: name, start: time.Now()}
	return context.WithValue(ctx, traceCtxKey{}, t), t
}

// ID returns the trace's request ID ("" on a nil trace).
func (t *Trace) ID() string {
	if t == nil {
		return ""
	}
	return t.id
}

// TraceFrom returns the trace carried by ctx, or nil.
func TraceFrom(ctx context.Context) *Trace {
	t, _ := ctx.Value(traceCtxKey{}).(*Trace)
	return t
}

// Annotate attaches a key=value attribute to the trace (session id,
// cache hit/miss, error summaries). Once the trace has ended its record
// is fixed, and later annotations are dropped, as later spans are.
func (t *Trace) Annotate(key, value string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.done {
		return
	}
	if t.attrs == nil {
		t.attrs = make(map[string]string)
	}
	t.attrs[key] = value
}

// Attrs returns a copy of the trace's annotations.
func (t *Trace) Attrs() map[string]string {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]string, len(t.attrs))
	for k, v := range t.attrs {
		out[k] = v
	}
	return out
}

// End finishes the trace, pushes it into the registry's ring buffer, and
// returns the total duration. Ending twice records once.
func (t *Trace) End() time.Duration {
	if t == nil {
		return 0
	}
	d := time.Since(t.start)
	t.mu.Lock()
	if t.done {
		t.mu.Unlock()
		return d
	}
	t.done = true
	// Nothing writes to spans or attrs once done is set, so the record
	// takes them as they are.
	spans, attrs := t.spans, t.attrs
	if len(spans) > 1 {
		slices.SortStableFunc(spans, func(a, b SpanRecord) int { return cmp.Compare(a.OffsetMS, b.OffsetMS) })
	}
	t.mu.Unlock()
	rec := TraceRecord{
		ID:         t.id,
		Name:       t.name,
		Start:      t.start,
		DurationMS: float64(d) / float64(time.Millisecond),
		Attrs:      attrs,
		Spans:      spans,
	}
	t.reg.traces.push(rec)
	return d
}

// Span is one in-progress pipeline stage.
type Span struct {
	trace *Trace
	name  string
	start time.Time
}

// StartSpan begins a stage span against the trace in ctx. With no trace
// in ctx the span is inert: End returns the elapsed time but records
// nothing.
func StartSpan(ctx context.Context, name string) *Span {
	return &Span{trace: TraceFrom(ctx), name: name, start: time.Now()}
}

// End completes the span, recording it on the trace and in the
// registry's per-stage latency histogram. It returns the duration.
func (s *Span) End() time.Duration {
	d := time.Since(s.start)
	t := s.trace
	if t == nil {
		return d
	}
	t.reg.Histogram(StageHistogram, "stage", s.name).ObserveDuration(d)
	rec := SpanRecord{
		Name:       s.name,
		OffsetMS:   float64(s.start.Sub(t.start)) / float64(time.Millisecond),
		DurationMS: float64(d) / float64(time.Millisecond),
	}
	t.mu.Lock()
	if !t.done {
		t.spans = append(t.spans, rec)
	}
	t.mu.Unlock()
	return d
}

// traceRing is a bounded buffer of the most recent traces.
type traceRing struct {
	mu   sync.Mutex
	buf  []TraceRecord
	next int
	full bool
}

func newTraceRing(capacity int) *traceRing {
	if capacity <= 0 {
		capacity = DefaultTraceCapacity
	}
	return &traceRing{buf: make([]TraceRecord, capacity)}
}

func (r *traceRing) push(t TraceRecord) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.buf[r.next] = t
	r.next = (r.next + 1) % len(r.buf)
	if r.next == 0 {
		r.full = true
	}
}

// recent returns the buffered traces, most recent first.
func (r *traceRing) recent() []TraceRecord {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := r.next
	if r.full {
		n = len(r.buf)
	}
	out := make([]TraceRecord, 0, n)
	for i := 1; i <= n; i++ {
		out = append(out, r.buf[(r.next-i+len(r.buf))%len(r.buf)])
	}
	return out
}

// RecentTraces returns the ring buffer's traces, most recent first.
func (r *Registry) RecentTraces() []TraceRecord {
	return r.traces.recent()
}
