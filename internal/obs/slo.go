package obs

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strings"
	"sync"
	"time"
)

// This file is the SLO engine: declarative service-level objectives
// evaluated against the metric registry over rolling windows, with
// multi-window burn-rate alerting (the SRE-workbook fast/slow pattern).
// An objective is a good-events / total-events ratio with a target;
// the burn rate over a window is (bad ratio in window) / (1 - target),
// i.e. how many times faster than "exactly on target" the error budget
// is being spent. An alert fires only when BOTH the fast window (catches
// a spike quickly) and the slow window (filters one-off blips) burn
// above their thresholds.

// Default SLO evaluation parameters. The windows follow the common
// page-level pairing scaled to a single node: a short window for
// detection latency, a longer one for confirmation.
const (
	DefaultSLOInterval   = 5 * time.Second
	DefaultSLOFastWindow = time.Minute
	DefaultSLOSlowWindow = 15 * time.Minute
	// DefaultFastBurn / DefaultSlowBurn are the alerting thresholds.
	DefaultFastBurn = 14.0
	DefaultSlowBurn = 6.0
	// DefaultSLOMinEvents is the minimum total events inside the fast
	// window before an alert may fire (one bad request out of one total
	// is a 100% bad ratio but no signal).
	DefaultSLOMinEvents = 10.0
)

// Objective is one declarative service-level objective: a target on the
// ratio of good events to total events, both derived from a registry
// snapshot as cumulative counts.
type Objective struct {
	// Name identifies the objective (the msite_slo_* metric label).
	Name string
	// Description is the human-readable promise.
	Description string
	// Target is the objective level in (0,1): the fraction of events
	// that must be good (e.g. 0.999 availability).
	Target float64
	// Good and Total derive the cumulative good/total event counts from
	// a snapshot. Total must be monotonic; Good ≤ Total.
	Good  func(Snapshot) float64
	Total func(Snapshot) float64
}

// LatencyObjective builds an objective over a latency histogram family:
// a request is good when it completed within threshold. target is the
// required good fraction (0.99 for a p99 promise). The threshold snaps
// down to the nearest histogram bucket bound, since bucket counts are
// the only sub-distribution data available.
func LatencyObjective(name, description, histogram string, threshold time.Duration, target float64) Objective {
	limit := threshold.Seconds()
	return Objective{
		Name:        name,
		Description: description,
		Target:      target,
		Good: func(s Snapshot) float64 {
			var good float64
			for _, h := range s.Histograms {
				if h.Name != histogram {
					continue
				}
				good += bucketCountAtOrBelow(h, limit)
			}
			return good
		},
		Total: func(s Snapshot) float64 {
			var total float64
			for _, h := range s.Histograms {
				if h.Name == histogram {
					total += float64(h.Count)
				}
			}
			return total
		},
	}
}

// bucketCountAtOrBelow returns the cumulative count of observations in
// buckets whose upper bound is ≤ limit — the largest measurable
// good-event count for a latency threshold (the threshold snaps down to
// a bucket bound; observations between that bound and the threshold
// count as bad, erring on the strict side). A limit at or above the
// highest finite bound counts everything finite.
func bucketCountAtOrBelow(h HistogramStat, limit float64) float64 {
	var count float64
	for _, b := range h.Buckets {
		if math.IsInf(b.UpperBound, 1) {
			continue
		}
		if b.UpperBound <= limit+1e-12 {
			count = float64(b.Count)
		}
	}
	return count
}

// RatioObjective builds an objective from two cumulative counter sums:
// good and total are each the sum of every series of the named counter
// families (bad families subtract from good).
func RatioObjective(name, description string, target float64, goodOf, totalOf func(Snapshot) float64) Objective {
	return Objective{Name: name, Description: description, Target: target, Good: goodOf, Total: totalOf}
}

// CounterSum sums every series of a counter family in a snapshot.
func CounterSum(s Snapshot, family string) float64 {
	var sum float64
	for _, c := range s.Counters {
		if c.Name == family {
			sum += float64(c.Value)
		}
	}
	return sum
}

// AvailabilityObjective promises that at least target of proxied
// requests complete without a 5xx.
func AvailabilityObjective(target float64) Objective {
	return RatioObjective(
		"availability",
		fmt.Sprintf("≥ %.4g of requests answered without a 5xx", target),
		target,
		func(s Snapshot) float64 {
			return CounterSum(s, "msite_proxy_requests_total") - CounterSum(s, "msite_proxy_errors_total")
		},
		func(s Snapshot) float64 { return CounterSum(s, "msite_proxy_requests_total") },
	)
}

// AdaptationLatencyObjective promises that at least 99% of proxied
// requests complete within threshold — the "-slo-target-p99" flag's
// objective.
func AdaptationLatencyObjective(threshold time.Duration) Objective {
	return LatencyObjective(
		"latency_p99",
		fmt.Sprintf("p99 request latency ≤ %v", threshold),
		"msite_http_request_seconds",
		threshold,
		0.99,
	)
}

// Alert is one burn-rate alert: both windows of an objective burned
// above threshold.
type Alert struct {
	// Objective is the objective name.
	Objective string `json:"objective"`
	// Time is when the evaluation fired.
	Time time.Time `json:"time"`
	// FastBurn / SlowBurn are the burn rates that tripped.
	FastBurn float64 `json:"fast_burn"`
	SlowBurn float64 `json:"slow_burn"`
	// FastBad / FastTotal are the fast window's event counts.
	FastBad   float64 `json:"fast_bad"`
	FastTotal float64 `json:"fast_total"`
}

// SLOConfig tunes an SLOEngine. The zero value uses the defaults above.
type SLOConfig struct {
	// Interval is the evaluation tick.
	Interval time.Duration
	// FastWindow / SlowWindow are the burn-rate windows. Both are
	// rounded up to a whole number of intervals.
	FastWindow, SlowWindow time.Duration
	// FastBurn / SlowBurn are the alert thresholds.
	FastBurn, SlowBurn float64
	// MinEvents gates alerting on the fast window's total event count.
	MinEvents float64
	// OnAlert, when non-nil, receives each alert as an objective
	// transitions into the alerting state (edge-triggered). Called from
	// the evaluation goroutine; must not block.
	OnAlert func(Alert)
	// Clock is the time source (tests inject a fake one). Nil uses
	// time.Now.
	Clock func() time.Time
}

func (c SLOConfig) withDefaults() SLOConfig {
	if c.Interval <= 0 {
		c.Interval = DefaultSLOInterval
	}
	if c.FastWindow <= 0 {
		c.FastWindow = DefaultSLOFastWindow
	}
	if c.SlowWindow <= 0 {
		c.SlowWindow = DefaultSLOSlowWindow
	}
	if c.FastBurn <= 0 {
		c.FastBurn = DefaultFastBurn
	}
	if c.SlowBurn <= 0 {
		c.SlowBurn = DefaultSlowBurn
	}
	if c.MinEvents <= 0 {
		c.MinEvents = DefaultSLOMinEvents
	}
	if c.Clock == nil {
		c.Clock = time.Now
	}
	return c
}

// sloSample is one tick's cumulative good/total per objective.
type sloSample struct {
	at    time.Time
	good  []float64
	total []float64
}

// ObjectiveStatus is one objective's current evaluation, as served by
// /slo.
type ObjectiveStatus struct {
	Name        string  `json:"name"`
	Description string  `json:"description"`
	Target      float64 `json:"target"`
	// FastBurn / SlowBurn are the current burn rates (1.0 = spending
	// budget exactly at the sustainable rate).
	FastBurn float64 `json:"fast_burn"`
	SlowBurn float64 `json:"slow_burn"`
	// Compliance is the good-event ratio over the slow window.
	Compliance float64 `json:"compliance"`
	// BudgetRemaining is the fraction of the slow window's error budget
	// left (clamped at 0).
	BudgetRemaining float64 `json:"budget_remaining"`
	// Alerting reports whether both windows currently burn above their
	// thresholds.
	Alerting bool `json:"alerting"`
	// FastTotal / SlowTotal are the windows' total event counts.
	FastTotal float64 `json:"fast_total"`
	SlowTotal float64 `json:"slow_total"`
	// LastEval is when this status was computed.
	LastEval time.Time `json:"last_eval"`
}

// SLOEngine evaluates objectives against a registry on a ticker,
// exports msite_slo_* metrics, and fires edge-triggered burn-rate
// alerts. Create with NewSLOEngine, start with Start, stop with Stop.
type SLOEngine struct {
	reg        *Registry
	cfg        SLOConfig
	objectives []Objective

	mu       sync.Mutex
	samples  []sloSample // ring, oldest first, bounded by slow window
	status   []ObjectiveStatus
	alerting []bool

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

// NewSLOEngine builds an engine over reg with the given objectives.
func NewSLOEngine(reg *Registry, cfg SLOConfig, objectives ...Objective) *SLOEngine {
	e := &SLOEngine{
		reg:        reg,
		cfg:        cfg.withDefaults(),
		objectives: objectives,
		alerting:   make([]bool, len(objectives)),
		stop:       make(chan struct{}),
		done:       make(chan struct{}),
	}
	e.status = make([]ObjectiveStatus, len(objectives))
	for i, o := range objectives {
		e.status[i] = ObjectiveStatus{Name: o.Name, Description: o.Description, Target: o.Target, BudgetRemaining: 1}
	}
	return e
}

// Objectives returns the configured objectives.
func (e *SLOEngine) Objectives() []Objective { return e.objectives }

// Start launches the evaluation ticker. Call Stop to end it.
func (e *SLOEngine) Start() {
	go func() {
		defer close(e.done)
		ticker := time.NewTicker(e.cfg.Interval)
		defer ticker.Stop()
		e.Eval() // establish the first sample immediately
		for {
			select {
			case <-ticker.C:
				e.Eval()
			case <-e.stop:
				return
			}
		}
	}()
}

// Stop ends the evaluation ticker. Safe to call more than once; only
// the first call blocks for the goroutine.
func (e *SLOEngine) Stop() {
	e.stopOnce.Do(func() {
		close(e.stop)
		<-e.done
	})
}

// maxSamples bounds the sample ring: enough ticks to cover the slow
// window, plus the current one.
func (e *SLOEngine) maxSamples() int {
	n := int(e.cfg.SlowWindow/e.cfg.Interval) + 1
	if n < 2 {
		n = 2
	}
	return n
}

// windowDelta finds the oldest sample within window of now and returns
// the (good, total) deltas for objective i since it. With only the
// current sample the deltas are zero.
func windowDelta(samples []sloSample, now time.Time, window time.Duration, i int) (good, total float64) {
	cur := samples[len(samples)-1]
	// Walk from the oldest; the first sample inside the window is the
	// baseline. If every older sample fell out of the window, use the
	// newest of them (covering slightly more than the window beats
	// covering nothing).
	baseline := samples[0]
	for _, s := range samples[:len(samples)-1] {
		if now.Sub(s.at) <= window {
			baseline = s
			break
		}
		baseline = s
	}
	return cur.good[i] - baseline.good[i], cur.total[i] - baseline.total[i]
}

// burnRate converts window deltas into a budget burn rate.
func burnRate(good, total, target float64) float64 {
	if total <= 0 {
		return 0
	}
	bad := total - good
	if bad < 0 {
		bad = 0
	}
	budget := 1 - target
	if budget <= 0 {
		budget = 1e-9
	}
	return (bad / total) / budget
}

// Eval runs one evaluation pass: sample the registry, recompute burn
// rates, update the msite_slo_* metrics, and fire edge-triggered
// alerts. Start calls it on the ticker; tests and benches may call it
// directly.
func (e *SLOEngine) Eval() {
	if len(e.objectives) == 0 {
		return
	}
	now := e.cfg.Clock()
	snap := e.reg.Snapshot()
	sample := sloSample{
		at:    now,
		good:  make([]float64, len(e.objectives)),
		total: make([]float64, len(e.objectives)),
	}
	for i, o := range e.objectives {
		sample.good[i] = o.Good(snap)
		sample.total[i] = o.Total(snap)
	}

	var fired []Alert
	e.mu.Lock()
	e.samples = append(e.samples, sample)
	if max := e.maxSamples(); len(e.samples) > max {
		e.samples = e.samples[len(e.samples)-max:]
	}
	for i, o := range e.objectives {
		fastGood, fastTotal := windowDelta(e.samples, now, e.cfg.FastWindow, i)
		slowGood, slowTotal := windowDelta(e.samples, now, e.cfg.SlowWindow, i)
		fast := burnRate(fastGood, fastTotal, o.Target)
		slow := burnRate(slowGood, slowTotal, o.Target)
		compliance := 1.0
		if slowTotal > 0 {
			compliance = slowGood / slowTotal
		}
		budget := 1 - slow
		if budget < 0 {
			budget = 0
		}
		alerting := fast >= e.cfg.FastBurn && slow >= e.cfg.SlowBurn && fastTotal >= e.cfg.MinEvents
		if alerting && !e.alerting[i] {
			fired = append(fired, Alert{
				Objective: o.Name, Time: now,
				FastBurn: fast, SlowBurn: slow,
				FastBad: fastTotal - fastGood, FastTotal: fastTotal,
			})
		}
		e.alerting[i] = alerting
		e.status[i] = ObjectiveStatus{
			Name: o.Name, Description: o.Description, Target: o.Target,
			FastBurn: fast, SlowBurn: slow,
			Compliance: compliance, BudgetRemaining: budget,
			Alerting:  alerting,
			FastTotal: fastTotal, SlowTotal: slowTotal,
			LastEval: now,
		}
	}
	e.mu.Unlock()

	// Metric export happens outside e.mu (registry locks are
	// independent, but keeping the critical section tight is cheap).
	for _, st := range e.Status() {
		e.reg.Gauge("msite_slo_burn_rate", "objective", st.Name, "window", "fast").Set(st.FastBurn)
		e.reg.Gauge("msite_slo_burn_rate", "objective", st.Name, "window", "slow").Set(st.SlowBurn)
		e.reg.Gauge("msite_slo_compliance", "objective", st.Name).Set(st.Compliance)
		e.reg.Gauge("msite_slo_budget_remaining", "objective", st.Name).Set(st.BudgetRemaining)
		alerting := 0.0
		if st.Alerting {
			alerting = 1
		}
		e.reg.Gauge("msite_slo_alerting", "objective", st.Name).Set(alerting)
	}
	for _, a := range fired {
		e.reg.Counter("msite_slo_alerts_total", "objective", a.Objective).Inc()
		if e.cfg.OnAlert != nil {
			e.cfg.OnAlert(a)
		}
	}
}

// Status returns a copy of every objective's latest evaluation.
func (e *SLOEngine) Status() []ObjectiveStatus {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]ObjectiveStatus, len(e.status))
	copy(out, e.status)
	return out
}

// SLOHandler serves the engine's objective statuses at /slo:
// Prometheus text exposition by default (the msite_slo_* series), JSON
// with Accept: application/json or ?format=json — the same negotiation
// as /metrics.
func SLOHandler(e *SLOEngine) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet && req.Method != http.MethodHead {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		status := e.Status()
		if wantsJSON(req) {
			w.Header().Set("Content-Type", "application/json")
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			_ = enc.Encode(map[string]any{"objectives": status})
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		var b strings.Builder
		b.WriteString("# TYPE msite_slo_burn_rate gauge\n")
		for _, st := range status {
			fmt.Fprintf(&b, "msite_slo_burn_rate{objective=%q,window=\"fast\"} %s\n", st.Name, formatFloat(st.FastBurn))
			fmt.Fprintf(&b, "msite_slo_burn_rate{objective=%q,window=\"slow\"} %s\n", st.Name, formatFloat(st.SlowBurn))
		}
		b.WriteString("# TYPE msite_slo_compliance gauge\n")
		for _, st := range status {
			fmt.Fprintf(&b, "msite_slo_compliance{objective=%q} %s\n", st.Name, formatFloat(st.Compliance))
		}
		b.WriteString("# TYPE msite_slo_budget_remaining gauge\n")
		for _, st := range status {
			fmt.Fprintf(&b, "msite_slo_budget_remaining{objective=%q} %s\n", st.Name, formatFloat(st.BudgetRemaining))
		}
		b.WriteString("# TYPE msite_slo_alerting gauge\n")
		for _, st := range status {
			v := 0.0
			if st.Alerting {
				v = 1
			}
			fmt.Fprintf(&b, "msite_slo_alerting{objective=%q} %s\n", st.Name, formatFloat(v))
		}
		_, _ = w.Write([]byte(b.String()))
	})
}
