package obs

import (
	"cmp"
	"context"
	"log/slog"
	"math/rand/v2"
	"slices"
	"strings"
	"sync"
	"time"
	"unsafe"
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

// Trace accumulates the spans and annotations of one request. It is
// also the request's context: it carries the context it was started
// under and answers Value for its own key, so starting a trace makes no
// context of its own. It is safe for concurrent annotation (the
// single-flight adaptation path can record spans from a goroutine other
// than the one that started the trace).
type Trace struct {
	context.Context
	reg *Registry
	// id is ID's string, over data.id, which is written once before it.
	id string

	mu   sync.Mutex
	done bool
	data traceData
}

// inlineNotes is how many annotations a trace holds before it spills to
// a slice: a warm request makes one or two.
const inlineNotes = 4

// note is one annotation.
type note struct{ key, value string }

// traceData is what a trace records. When the trace ends the ring keeps
// a copy of it, so a finished trace holds on to nothing of its request,
// and /debug/traces builds each record's maps and slices as it reads.
type traceData struct {
	id    [16]byte
	name  string
	start time.Time
	dur   time.Duration
	// notes[:n] are the first annotations, spill the rest; a key is in
	// one place only.
	notes [inlineNotes]note
	n     int
	spill []note
	spans []SpanRecord
}

// annotate sets key to value, keeping the key's place if it has one.
func (d *traceData) annotate(key, value string) {
	for i := range d.notes[:d.n] {
		if d.notes[i].key == key {
			d.notes[i].value = value
			return
		}
	}
	for i := range d.spill {
		if d.spill[i].key == key {
			d.spill[i].value = value
			return
		}
	}
	if d.n < inlineNotes {
		d.notes[d.n] = note{key, value}
		d.n++
		return
	}
	d.spill = append(d.spill, note{key, value})
}

// attrs returns the annotations as a map of their own; nil when there
// are none.
func (d *traceData) attrs() map[string]string {
	if d.n == 0 {
		return nil
	}
	out := make(map[string]string, d.n+len(d.spill))
	for _, nt := range d.notes[:d.n] {
		out[nt.key] = nt.value
	}
	for _, nt := range d.spill {
		out[nt.key] = nt.value
	}
	return out
}

// record is the finished trace as /debug/traces serves it, sharing
// nothing with d.
func (d *traceData) record() TraceRecord {
	return TraceRecord{
		ID:         string(d.id[:]),
		Name:       d.name,
		Start:      d.start,
		DurationMS: float64(d.dur) / float64(time.Millisecond),
		Attrs:      d.attrs(),
		Spans:      slices.Clone(d.spans),
	}
}

type traceCtxKey struct{}

// putTraceID spells v into b as 16 zero-padded lowercase hex digits.
func putTraceID(b *[16]byte, v uint64) {
	const digits = "0123456789abcdef"
	for i := len(b) - 1; i >= 0; i-- {
		b[i] = digits[v&0xf]
		v >>= 4
	}
}

// StartTrace begins a request trace under ctx, with a fresh trace ID,
// and returns it twice: as the context from which StartSpan and
// TraceFrom recover it, and as itself.
func (r *Registry) StartTrace(ctx context.Context, name string) (context.Context, *Trace) {
	t := new(Trace)
	r.InitTrace(t, ctx, name)
	return t, t
}

// InitTrace begins t, a zero Trace the caller allocated (inside a
// per-request value of its own, say), under parent as StartTrace begins
// one; t is then the context to hand on. The ID is 16 hex digits of math/rand/v2's
// global generator, which is seeded from OS entropy and safe for
// concurrent use; collisions within a 128-entry ring are vanishingly
// unlikely.
func (r *Registry) InitTrace(t *Trace, parent context.Context, name string) {
	t.Context, t.reg = parent, r
	t.data.name, t.data.start = name, time.Now()
	putTraceID(&t.data.id, rand.Uint64())
	// The bytes are never written again, so the string may stand on them.
	t.id = unsafe.String(&t.data.id[0], len(t.data.id))
}

// Value answers the trace's own key with the trace and every other key
// from the context the trace was started under.
func (t *Trace) Value(key any) any {
	if key == (traceCtxKey{}) {
		return t
	}
	return t.Context.Value(key)
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
	if t, ok := ctx.(*Trace); ok {
		return t
	}
	t, _ := ctx.Value(traceCtxKey{}).(*Trace)
	return t
}

// Annotate attaches a key=value attribute to the trace (session id,
// cache hit/miss, error summaries); a key annotated again keeps the last
// value. Once the trace has ended its record is fixed, and later
// annotations are dropped, as later spans are.
func (t *Trace) Annotate(key, value string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.done {
		t.data.annotate(key, value)
	}
}

// AppendAttrs appends the trace's annotations to attrs as string
// attributes, sorted by key, and returns the extended slice: a request
// log line is the request's attributes followed by these.
func (t *Trace) AppendAttrs(attrs []slog.Attr) []slog.Attr {
	if t == nil {
		return attrs
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	base := len(attrs)
	for _, nt := range t.data.notes[:t.data.n] {
		attrs = append(attrs, slog.String(nt.key, nt.value))
	}
	for _, nt := range t.data.spill {
		attrs = append(attrs, slog.String(nt.key, nt.value))
	}
	slices.SortFunc(attrs[base:], func(a, b slog.Attr) int { return strings.Compare(a.Key, b.Key) })
	return attrs
}

// End finishes the trace, pushes a copy of its record into the
// registry's ring buffer, and returns the total duration. Ending twice
// records once.
func (t *Trace) End() time.Duration {
	if t == nil {
		return 0
	}
	d := time.Since(t.data.start)
	t.mu.Lock()
	if t.done {
		t.mu.Unlock()
		return d
	}
	t.done = true
	t.data.dur = d
	if spans := t.data.spans; len(spans) > 1 {
		slices.SortStableFunc(spans, func(a, b SpanRecord) int { return cmp.Compare(a.OffsetMS, b.OffsetMS) })
	}
	t.mu.Unlock()
	// Nothing writes to data once done is set, so the ring copies it
	// without the trace's lock.
	t.reg.traces.push(&t.data)
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
		OffsetMS:   float64(s.start.Sub(t.data.start)) / float64(time.Millisecond),
		DurationMS: float64(d) / float64(time.Millisecond),
	}
	t.mu.Lock()
	if !t.done {
		t.data.spans = append(t.data.spans, rec)
	}
	t.mu.Unlock()
	return d
}

// traceRing is a bounded buffer of the most recent traces' records.
type traceRing struct {
	mu   sync.Mutex
	buf  []traceData
	next int
	full bool
}

func newTraceRing(capacity int) *traceRing {
	if capacity <= 0 {
		capacity = DefaultTraceCapacity
	}
	return &traceRing{buf: make([]traceData, capacity)}
}

func (r *traceRing) push(d *traceData) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.buf[r.next] = *d
	r.next = (r.next + 1) % len(r.buf)
	if r.next == 0 {
		r.full = true
	}
}

// recent returns copies of the buffered records, most recent first.
func (r *traceRing) recent() []traceData {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := r.next
	if r.full {
		n = len(r.buf)
	}
	out := make([]traceData, 0, n)
	for i := 1; i <= n; i++ {
		out = append(out, r.buf[(r.next-i+len(r.buf))%len(r.buf)])
	}
	return out
}

// RecentTraces returns the ring buffer's traces, most recent first. Each
// record's Attrs and Spans are the caller's own.
func (r *Registry) RecentTraces() []TraceRecord {
	data := r.traces.recent()
	out := make([]TraceRecord, len(data))
	for i := range data {
		out[i] = data[i].record()
	}
	return out
}
