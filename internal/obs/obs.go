// Package obs is the observability layer of m.Site: atomic counters,
// gauges, and fixed-bucket latency histograms behind a named registry, a
// lightweight span/trace API that records the adaptation pipeline's
// stages per request, and an HTTP exposition handler that serves both
// JSON and Prometheus text format. It is stdlib-only and designed so
// that recording on the adaptation hot path is a few atomic operations —
// scrapes never contend with serving.
//
// The paper's evaluation (§4) is entirely about where time goes —
// per-attribute adaptation cost, render-vs-cache-hit latency,
// multi-session scalability — and this package is how the repo measures
// that on live traffic rather than only in offline experiments.
package obs

import (
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultLatencyBuckets are the histogram upper bounds, in seconds, used
// when no explicit buckets are given. They span 0.5 ms – 10 s, the range
// between a cache hit and a pathological origin fetch.
var DefaultLatencyBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Label is one metric label pair.
type Label struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// DefaultLabelCardinality bounds how many distinct values one label key
// of one metric family may take. The 65th and later values collapse
// into OverflowLabelValue, so an open-ended label source (a crawler
// hitting many sites, a botnet of origins) cannot grow /metrics without
// bound.
const DefaultLabelCardinality = 64

// OverflowLabelValue is the bucket label values collapse into past the
// cardinality cap.
const OverflowLabelValue = "other"

// Registry holds named metrics and the ring buffer of recent traces.
// All methods are safe for concurrent use; metric handles returned by
// Counter/Gauge/Histogram may be cached and used lock-free.
type Registry struct {
	mu        sync.RWMutex
	metrics   map[string]any // *Counter, *Gauge, *gaugeFunc, *Histogram
	cardLimit int
	// labelSeen tracks the distinct values per (family, label key) for
	// the cardinality cap.
	labelSeen map[labelFamily]map[string]struct{}
	traces    *traceRing
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		metrics:   make(map[string]any),
		cardLimit: DefaultLabelCardinality,
		labelSeen: make(map[labelFamily]map[string]struct{}),
		traces:    newTraceRing(DefaultTraceCapacity),
	}
}

// SetLabelCardinality adjusts the per-(family, key) distinct-value cap.
// 0 restores DefaultLabelCardinality; negative disables the cap.
func (r *Registry) SetLabelCardinality(n int) {
	if n == 0 {
		n = DefaultLabelCardinality
	}
	r.mu.Lock()
	r.cardLimit = n
	r.mu.Unlock()
}

// labelFamily is one (metric family, label key) pair the cardinality
// cap counts values for.
type labelFamily struct{ name, key string }

// capLabels enforces the cardinality cap in place: label values beyond
// the per-(family, key) limit are replaced with OverflowLabelValue. The
// fast path (every value already seen) takes only the read lock.
func (r *Registry) capLabels(name string, labels []Label) {
	if len(labels) == 0 {
		return
	}
	r.mu.RLock()
	limit := r.cardLimit
	allSeen := limit >= 0
	if allSeen {
		for _, l := range labels {
			if _, ok := r.labelSeen[labelFamily{name, l.Key}][l.Value]; !ok {
				allSeen = false
				break
			}
		}
	}
	r.mu.RUnlock()
	if limit < 0 || allSeen {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for i, l := range labels {
		fam := labelFamily{name, l.Key}
		seen := r.labelSeen[fam]
		if seen == nil {
			seen = make(map[string]struct{})
			r.labelSeen[fam] = seen
		}
		if _, ok := seen[l.Value]; ok {
			continue
		}
		if len(seen) < r.cardLimit {
			seen[l.Value] = struct{}{}
			continue
		}
		labels[i].Value = OverflowLabelValue
	}
}

// appendMetricID appends the canonical series identity of a name plus
// sorted label pairs — name{k1="v1",k2="v2"}, values quoted as %q quotes
// them — to dst. It keys the registry and orders the exposition.
func appendMetricID(dst []byte, name string, labels []Label) []byte {
	dst = append(dst, name...)
	if len(labels) == 0 {
		return dst
	}
	dst = append(dst, '{')
	for i, l := range labels {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, l.Key...)
		dst = append(dst, '=')
		dst = strconv.AppendQuote(dst, l.Value)
	}
	return append(dst, '}')
}

// makeLabels appends variadic "k1, v1, k2, v2" pairs to dst as labels
// sorted by key. Odd-length input is a programming error.
func makeLabels(dst []Label, pairs []string) []Label {
	if len(pairs)%2 != 0 {
		panic("obs: odd label pairs " + strings.Join(pairs, ", "))
	}
	for i := 0; i < len(pairs); i += 2 {
		dst = append(dst, Label{Key: pairs[i], Value: pairs[i+1]})
	}
	// Insertion sort: a metric has a handful of labels.
	for i := 1; i < len(dst); i++ {
		for j := i; j > 0 && dst[j].Key < dst[j-1].Key; j-- {
			dst[j], dst[j-1] = dst[j-1], dst[j]
		}
	}
	return dst
}

// resolve returns the metric registered under name and label pairs,
// registering create's on first use. Label values past the cardinality
// cap collapse into OverflowLabelValue. Looking up a series that exists
// builds its labels and identity on the stack, so a lookup allocates
// nothing once the series is registered; still, a handle whose labels are
// fixed is best resolved once and kept.
func resolve[M any](r *Registry, name string, pairs []string, create func(labels []Label) M) M {
	var labelBuf [4]Label
	labels := makeLabels(labelBuf[:0], pairs)
	r.capLabels(name, labels)
	var idBuf [128]byte
	id := appendMetricID(idBuf[:0], name, labels)
	r.mu.RLock()
	m, ok := r.metrics[string(id)]
	r.mu.RUnlock()
	if !ok {
		r.mu.Lock()
		if m, ok = r.metrics[string(id)]; !ok {
			m = create(slices.Clone(labels))
			r.metrics[string(id)] = m
		}
		r.mu.Unlock()
	}
	typed, ok := m.(M)
	if !ok {
		panic(fmt.Sprintf("obs: metric %s already registered as %T", string(id), m))
	}
	return typed
}

// Counter returns (creating on first use) the counter for name and label
// pairs ("k1", "v1", ...). Label values past the cardinality cap
// collapse into OverflowLabelValue.
func (r *Registry) Counter(name string, labelPairs ...string) *Counter {
	return resolve(r, name, labelPairs, func(labels []Label) *Counter {
		return &Counter{name: name, labels: labels}
	})
}

// Gauge returns (creating on first use) the settable gauge for name and
// label pairs.
func (r *Registry) Gauge(name string, labelPairs ...string) *Gauge {
	return resolve(r, name, labelPairs, func(labels []Label) *Gauge {
		return &Gauge{name: name, labels: labels}
	})
}

// GaugeFunc registers (or replaces) a gauge whose value is read from fn
// at snapshot time — e.g. the live-session count.
func (r *Registry) GaugeFunc(name string, fn func() float64, labelPairs ...string) {
	labels := makeLabels(nil, labelPairs)
	r.capLabels(name, labels)
	id := string(appendMetricID(nil, name, labels))
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.metrics[id]; ok {
		if _, isFunc := m.(*gaugeFunc); !isFunc {
			panic(fmt.Sprintf("obs: metric %s already registered as %T", id, m))
		}
	}
	r.metrics[id] = &gaugeFunc{name: name, labels: labels, fn: fn}
}

// Histogram returns (creating on first use) the latency histogram for
// name and label pairs, with DefaultLatencyBuckets.
func (r *Registry) Histogram(name string, labelPairs ...string) *Histogram {
	return r.HistogramBuckets(name, DefaultLatencyBuckets, labelPairs...)
}

// HistogramBuckets is Histogram with explicit upper bounds (sorted
// ascending; an implicit +Inf bucket is appended).
func (r *Registry) HistogramBuckets(name string, bounds []float64, labelPairs ...string) *Histogram {
	return resolve(r, name, labelPairs, func(labels []Label) *Histogram {
		return newHistogram(name, labels, bounds)
	})
}

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	name   string
	labels []Label
	v      atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a settable value (stored as float64 bits).
type Gauge struct {
	name   string
	labels []Label
	bits   atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adjusts the gauge by d.
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// gaugeFunc is a gauge sampled at snapshot time.
type gaugeFunc struct {
	name   string
	labels []Label
	fn     func() float64
}

// Histogram is a fixed-bucket histogram with atomic bucket counts; the
// last bucket is +Inf. Observe is wait-free apart from the sum's CAS.
type Histogram struct {
	name   string
	labels []Label
	bounds []float64       // finite upper bounds, ascending
	counts []atomic.Uint64 // len(bounds)+1; last is +Inf
	sum    atomic.Uint64   // float64 bits
	count  atomic.Uint64
}

func newHistogram(name string, labels []Label, bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = DefaultLatencyBuckets
	}
	if !sort.Float64sAreSorted(bounds) {
		panic(fmt.Sprintf("obs: histogram %s bounds not sorted", name))
	}
	b := make([]float64, len(bounds))
	copy(b, bounds)
	return &Histogram{
		name:   name,
		labels: labels,
		bounds: b,
		counts: make([]atomic.Uint64, len(b)+1),
	}
}

// Observe records one value (seconds, for latency histograms).
func (h *Histogram) Observe(v float64) {
	// First bound >= v: the le-bucket the value belongs to. Values above
	// every bound land in the trailing +Inf bucket.
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveDuration records d in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Bucket is one cumulative histogram bucket in a snapshot.
type Bucket struct {
	// UpperBound is the bucket's le bound; +Inf for the last.
	UpperBound float64 `json:"-"`
	// Count is the cumulative observation count at or below UpperBound.
	Count uint64 `json:"count"`
}

// MarshalJSON encodes the le bound as a string so the +Inf bucket
// survives JSON (which has no infinity literal).
func (b Bucket) MarshalJSON() ([]byte, error) {
	le := "+Inf"
	if !math.IsInf(b.UpperBound, 1) {
		le = strconv.FormatFloat(b.UpperBound, 'g', -1, 64)
	}
	return json.Marshal(struct {
		Le    string `json:"le"`
		Count uint64 `json:"count"`
	}{Le: le, Count: b.Count})
}

// UnmarshalJSON is the inverse of MarshalJSON.
func (b *Bucket) UnmarshalJSON(data []byte) error {
	var aux struct {
		Le    string `json:"le"`
		Count uint64 `json:"count"`
	}
	if err := json.Unmarshal(data, &aux); err != nil {
		return err
	}
	b.Count = aux.Count
	if aux.Le == "+Inf" {
		b.UpperBound = math.Inf(1)
		return nil
	}
	v, err := strconv.ParseFloat(aux.Le, 64)
	if err != nil {
		return err
	}
	b.UpperBound = v
	return nil
}

// CounterStat is a counter's snapshot.
type CounterStat struct {
	Name   string  `json:"name"`
	Labels []Label `json:"labels,omitempty"`
	Value  uint64  `json:"value"`
}

// GaugeStat is a gauge's snapshot.
type GaugeStat struct {
	Name   string  `json:"name"`
	Labels []Label `json:"labels,omitempty"`
	Value  float64 `json:"value"`
}

// HistogramStat is a histogram's snapshot with estimated quantiles.
type HistogramStat struct {
	Name    string   `json:"name"`
	Labels  []Label  `json:"labels,omitempty"`
	Count   uint64   `json:"count"`
	Sum     float64  `json:"sum"`
	Buckets []Bucket `json:"buckets"`
	P50     float64  `json:"p50"`
	P90     float64  `json:"p90"`
	P99     float64  `json:"p99"`
}

// Label returns the value of the labeled key, or "".
func (h HistogramStat) Label(key string) string { return labelValue(h.Labels, key) }

// Label returns the value of the labeled key, or "".
func (c CounterStat) Label(key string) string { return labelValue(c.Labels, key) }

func labelValue(labels []Label, key string) string {
	for _, l := range labels {
		if l.Key == key {
			return l.Value
		}
	}
	return ""
}

// snapshot reads the histogram's state. Concurrent observations may land
// between bucket reads; the result is a consistent-enough point-in-time
// view (count is re-derived from the bucket sum so buckets always add up).
func (h *Histogram) snapshot() HistogramStat {
	buckets := make([]Bucket, len(h.counts))
	var cum uint64
	for i := range h.counts {
		cum += h.counts[i].Load()
		bound := math.Inf(1)
		if i < len(h.bounds) {
			bound = h.bounds[i]
		}
		buckets[i] = Bucket{UpperBound: bound, Count: cum}
	}
	st := HistogramStat{
		Name:    h.name,
		Labels:  h.labels,
		Count:   cum,
		Sum:     math.Float64frombits(h.sum.Load()),
		Buckets: buckets,
	}
	st.P50 = quantile(buckets, 0.50)
	st.P90 = quantile(buckets, 0.90)
	st.P99 = quantile(buckets, 0.99)
	return st
}

// quantile estimates the q-quantile from cumulative buckets with linear
// interpolation inside the target bucket (the histogram_quantile rule).
// Observations in the +Inf bucket clamp to the highest finite bound.
func quantile(buckets []Bucket, q float64) float64 {
	if len(buckets) == 0 {
		return 0
	}
	total := buckets[len(buckets)-1].Count
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	for i, b := range buckets {
		if float64(b.Count) < rank {
			continue
		}
		if math.IsInf(b.UpperBound, 1) {
			// Clamp to the last finite bound.
			if i > 0 {
				return buckets[i-1].UpperBound
			}
			return 0
		}
		lower, below := 0.0, uint64(0)
		if i > 0 {
			lower = buckets[i-1].UpperBound
			below = buckets[i-1].Count
		}
		inBucket := b.Count - below
		if inBucket == 0 {
			return b.UpperBound
		}
		return lower + (b.UpperBound-lower)*(rank-float64(below))/float64(inBucket)
	}
	return buckets[len(buckets)-1].UpperBound
}

// Snapshot is a point-in-time view of every metric, sorted by series
// identity for stable output.
type Snapshot struct {
	Counters   []CounterStat   `json:"counters"`
	Gauges     []GaugeStat     `json:"gauges"`
	Histograms []HistogramStat `json:"histograms"`
}

// Histogram returns the named histogram stat matching every given label
// pair, or false.
func (s Snapshot) Histogram(name string, labelPairs ...string) (HistogramStat, bool) {
	want := makeLabels(nil, labelPairs)
	for _, h := range s.Histograms {
		if h.Name == name && labelsMatch(h.Labels, want) {
			return h, true
		}
	}
	return HistogramStat{}, false
}

// Counter returns the named counter stat matching every given label
// pair, or false.
func (s Snapshot) Counter(name string, labelPairs ...string) (CounterStat, bool) {
	want := makeLabels(nil, labelPairs)
	for _, c := range s.Counters {
		if c.Name == name && labelsMatch(c.Labels, want) {
			return c, true
		}
	}
	return CounterStat{}, false
}

func labelsMatch(have, want []Label) bool {
	for _, w := range want {
		if labelValue(have, w.Key) != w.Value {
			return false
		}
	}
	return true
}

// Snapshot captures every registered metric.
func (r *Registry) Snapshot() Snapshot {
	r.mu.RLock()
	ids := make([]string, 0, len(r.metrics))
	for id := range r.metrics {
		ids = append(ids, id)
	}
	metrics := make([]any, 0, len(ids))
	sort.Strings(ids)
	for _, id := range ids {
		metrics = append(metrics, r.metrics[id])
	}
	r.mu.RUnlock()

	var snap Snapshot
	for _, m := range metrics {
		switch m := m.(type) {
		case *Counter:
			snap.Counters = append(snap.Counters, CounterStat{Name: m.name, Labels: m.labels, Value: m.Value()})
		case *Gauge:
			snap.Gauges = append(snap.Gauges, GaugeStat{Name: m.name, Labels: m.labels, Value: m.Value()})
		case *gaugeFunc:
			snap.Gauges = append(snap.Gauges, GaugeStat{Name: m.name, Labels: m.labels, Value: m.fn()})
		case *Histogram:
			snap.Histograms = append(snap.Histograms, m.snapshot())
		}
	}
	return snap
}
