package obs

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// fakeClock is a hand-advanced time source for SLO/recorder tests.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{now: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

func gaugeValue(t *testing.T, s Snapshot, name string, kv ...string) float64 {
	t.Helper()
	for _, g := range s.Gauges {
		if g.Name != name {
			continue
		}
		match := true
		for i := 0; i+1 < len(kv); i += 2 {
			if labelValue(g.Labels, kv[i]) != kv[i+1] {
				match = false
				break
			}
		}
		if match {
			return g.Value
		}
	}
	t.Fatalf("gauge %s%v not found", name, kv)
	return 0
}

func TestLatencyObjectiveBucketMath(t *testing.T) {
	r := NewRegistry()
	h := r.HistogramBuckets("msite_http_request_seconds", DefaultLatencyBuckets, "site", "forum")
	for i := 0; i < 9; i++ {
		h.Observe(0.01) // within the 250ms promise
	}
	h.Observe(0.4) // lands in the 0.5 bucket: bad

	o := AdaptationLatencyObjective(250 * time.Millisecond)
	snap := r.Snapshot()
	if got := o.Good(snap); got != 9 {
		t.Fatalf("good = %v, want 9", got)
	}
	if got := o.Total(snap); got != 10 {
		t.Fatalf("total = %v, want 10", got)
	}
	if o.Target != 0.99 || o.Name != "latency_p99" {
		t.Fatalf("objective = %+v", o)
	}
}

func TestBucketCountSnapsDown(t *testing.T) {
	h := HistogramStat{Buckets: []Bucket{
		{UpperBound: 0.1, Count: 3},
		{UpperBound: 0.25, Count: 7},
		{UpperBound: 0.5, Count: 9},
	}}
	// A threshold between bounds snaps down to the nearest bound.
	if got := bucketCountAtOrBelow(h, 0.3); got != 7 {
		t.Fatalf("count at 0.3 = %v, want 7 (snapped to 0.25)", got)
	}
	// An exact bound match must not be lost to float fuzz.
	if got := bucketCountAtOrBelow(h, 0.25); got != 7 {
		t.Fatalf("count at 0.25 = %v, want 7", got)
	}
	if got := bucketCountAtOrBelow(h, 0.05); got != 0 {
		t.Fatalf("count at 0.05 = %v, want 0", got)
	}
}

func approx(a, b float64) bool {
	d := a - b
	return d < 1e-9 && d > -1e-9
}

func TestBurnRate(t *testing.T) {
	// 50% bad against a 10% budget burns 5x.
	if got := burnRate(100, 200, 0.9); !approx(got, 5) {
		t.Fatalf("burn = %v, want 5", got)
	}
	// No events, no burn.
	if got := burnRate(0, 0, 0.9); got != 0 {
		t.Fatalf("burn = %v, want 0", got)
	}
	// All good: zero burn.
	if got := burnRate(10, 10, 0.9); got != 0 {
		t.Fatalf("burn = %v, want 0", got)
	}
}

// sloTestEngine builds an availability engine over hand-driven counters
// with a fake clock; Eval is called manually.
func sloTestEngine(clock *fakeClock, onAlert func(Alert)) (*Registry, *SLOEngine) {
	r := NewRegistry()
	e := NewSLOEngine(r, SLOConfig{
		Interval:   time.Second,
		FastWindow: 2 * time.Second,
		SlowWindow: 6 * time.Second,
		FastBurn:   5,
		SlowBurn:   3,
		MinEvents:  5,
		OnAlert:    onAlert,
		Clock:      clock.Now,
	}, AvailabilityObjective(0.9))
	return r, e
}

func TestSLOEngineAlertsOnBurn(t *testing.T) {
	clock := newFakeClock()
	var alerts []Alert
	r, e := sloTestEngine(clock, func(a Alert) { alerts = append(alerts, a) })
	requests := r.Counter("msite_proxy_requests_total", "site", "forum")
	errors := r.Counter("msite_proxy_errors_total", "site", "forum")

	e.Eval() // baseline sample

	requests.Add(100) // healthy minute
	clock.Advance(time.Second)
	e.Eval()
	if st := e.Status()[0]; st.Alerting || st.FastBurn != 0 {
		t.Fatalf("healthy status = %+v", st)
	}
	if len(alerts) != 0 {
		t.Fatalf("alerts fired while healthy: %+v", alerts)
	}

	requests.Add(100) // everything errors
	errors.Add(100)
	clock.Advance(time.Second)
	e.Eval()
	st := e.Status()[0]
	if !st.Alerting {
		t.Fatalf("not alerting after burn: %+v", st)
	}
	// Fast window covers both batches: 100 bad of 200 = 50% bad against a
	// 10% budget = burn 5.
	if !approx(st.FastBurn, 5) {
		t.Fatalf("fast burn = %v, want 5", st.FastBurn)
	}
	if len(alerts) != 1 {
		t.Fatalf("alerts = %+v, want exactly 1", alerts)
	}
	a := alerts[0]
	if a.Objective != "availability" || a.FastBad != 100 || a.FastTotal != 200 {
		t.Fatalf("alert = %+v", a)
	}

	// Still burning: edge-triggered means no second alert.
	clock.Advance(time.Second)
	e.Eval()
	if !e.Status()[0].Alerting {
		t.Fatal("alerting state dropped while still burning")
	}
	if len(alerts) != 1 {
		t.Fatalf("re-alerted without recovering: %+v", alerts)
	}

	// Counter export and gauges reflect the alert.
	snap := r.Snapshot()
	if gaugeValue(t, snap, "msite_slo_alerting", "objective", "availability") != 1 {
		t.Fatal("msite_slo_alerting gauge not set")
	}
	var fired uint64
	for _, c := range snap.Counters {
		if c.Name == "msite_slo_alerts_total" {
			fired += c.Value
		}
	}
	if fired != 1 {
		t.Fatalf("msite_slo_alerts_total = %d, want 1", fired)
	}

	// Recovery: healthy traffic pushes the fast window's bad ratio down;
	// once enough good traffic accumulates the alert clears and a fresh
	// burn re-alerts (the edge re-arms).
	for i := 0; i < 7; i++ {
		requests.Add(1000)
		clock.Advance(time.Second)
		e.Eval()
	}
	if st := e.Status()[0]; st.Alerting {
		t.Fatalf("still alerting after recovery: %+v", st)
	}
	// Idle ticks push the recovery traffic out of the slow window so the
	// next burn dominates both windows.
	for i := 0; i < 7; i++ {
		clock.Advance(time.Second)
		e.Eval()
	}
	requests.Add(100)
	errors.Add(100)
	clock.Advance(time.Second)
	e.Eval()
	if len(alerts) != 2 {
		t.Fatalf("alerts after second burn = %d, want 2", len(alerts))
	}
}

func TestSLOEngineMinEventsGate(t *testing.T) {
	clock := newFakeClock()
	var alerts []Alert
	r, e := sloTestEngine(clock, func(a Alert) { alerts = append(alerts, a) })
	requests := r.Counter("msite_proxy_requests_total", "site", "forum")
	errors := r.Counter("msite_proxy_errors_total", "site", "forum")

	e.Eval()
	// 100% bad but only 3 events — under MinEvents 5, so no alert.
	requests.Add(3)
	errors.Add(3)
	clock.Advance(time.Second)
	e.Eval()
	st := e.Status()[0]
	if st.Alerting || len(alerts) != 0 {
		t.Fatalf("alerted on %v events: %+v", st.FastTotal, alerts)
	}
	if !approx(st.FastBurn, 10) {
		t.Fatalf("fast burn = %v, want 10 (100%% bad / 10%% budget)", st.FastBurn)
	}
}

func TestSLOEngineSampleRingBounded(t *testing.T) {
	clock := newFakeClock()
	_, e := sloTestEngine(clock, nil)
	for i := 0; i < 50; i++ {
		clock.Advance(time.Second)
		e.Eval()
	}
	e.mu.Lock()
	n := len(e.samples)
	e.mu.Unlock()
	if max := e.maxSamples(); n > max {
		t.Fatalf("sample ring holds %d, want <= %d", n, max)
	}
}

func TestSLOHandler(t *testing.T) {
	clock := newFakeClock()
	r, e := sloTestEngine(clock, nil)
	r.Counter("msite_proxy_requests_total", "site", "forum").Add(10)
	e.Eval()

	h := SLOHandler(e)

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/slo?format=json", nil))
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content type = %q", ct)
	}
	var body struct {
		Objectives []ObjectiveStatus `json:"objectives"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("json: %v", err)
	}
	if len(body.Objectives) != 1 || body.Objectives[0].Name != "availability" {
		t.Fatalf("objectives = %+v", body.Objectives)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/slo", nil))
	text := rec.Body.String()
	for _, want := range []string{
		"# TYPE msite_slo_burn_rate gauge",
		`msite_slo_burn_rate{objective="availability",window="fast"}`,
		`msite_slo_compliance{objective="availability"}`,
		`msite_slo_budget_remaining{objective="availability"}`,
		`msite_slo_alerting{objective="availability"} 0`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q:\n%s", want, text)
		}
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/slo", nil))
	if rec.Code != 405 {
		t.Fatalf("POST = %d, want 405", rec.Code)
	}
}

func TestSLOEngineStartStop(t *testing.T) {
	r := NewRegistry()
	e := NewSLOEngine(r, SLOConfig{Interval: 10 * time.Millisecond},
		AvailabilityObjective(0.999))
	e.Start()
	time.Sleep(30 * time.Millisecond)
	e.Stop()
	e.Stop() // idempotent
	if st := e.Status()[0]; st.LastEval.IsZero() {
		t.Fatal("ticker never evaluated")
	}
}
