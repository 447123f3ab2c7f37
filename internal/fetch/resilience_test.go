package fetch

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"msite/internal/obs"
)

// fakeClock is a manually advanced time source for breaker tests.
type fakeClock struct{ now atomic.Int64 }

func (c *fakeClock) Now() time.Time          { return time.Unix(0, c.now.Load()) }
func (c *fakeClock) Advance(d time.Duration) { c.now.Add(int64(d)) }
func newFakeClock() *fakeClock               { c := &fakeClock{}; c.now.Store(1); return c }

// breakerEvent is one step of a table-driven state-machine scenario.
type breakerEvent struct {
	// op: "ok" / "fail" record an outcome (asserting Allow first),
	// "reject" asserts Allow returns false, "advance" moves the clock.
	op      string
	advance time.Duration
	want    BreakerState // state after the event
}

func TestBreakerStateTransitions(t *testing.T) {
	const origin = "origin.example"
	cases := []struct {
		name   string
		cfg    BreakerConfig
		events []breakerEvent
	}{
		{
			name: "closed stays closed under threshold",
			cfg:  BreakerConfig{Threshold: 3, Cooldown: time.Second},
			events: []breakerEvent{
				{op: "fail", want: StateClosed},
				{op: "fail", want: StateClosed},
				{op: "ok", want: StateClosed}, // success resets the streak
				{op: "fail", want: StateClosed},
				{op: "fail", want: StateClosed},
			},
		},
		{
			name: "threshold consecutive failures trip open",
			cfg:  BreakerConfig{Threshold: 3, Cooldown: time.Second},
			events: []breakerEvent{
				{op: "fail", want: StateClosed},
				{op: "fail", want: StateClosed},
				{op: "fail", want: StateOpen},
				{op: "reject", want: StateOpen},
			},
		},
		{
			name: "open admits probe after cooldown; success closes",
			cfg:  BreakerConfig{Threshold: 1, Cooldown: time.Second},
			events: []breakerEvent{
				{op: "fail", want: StateOpen},
				{op: "reject", want: StateOpen},
				{op: "advance", advance: time.Second, want: StateHalfOpen},
				{op: "ok", want: StateClosed},
				{op: "ok", want: StateClosed},
			},
		},
		{
			name: "failed probe reopens",
			cfg:  BreakerConfig{Threshold: 1, Cooldown: time.Second},
			events: []breakerEvent{
				{op: "fail", want: StateOpen},
				{op: "advance", advance: time.Second, want: StateHalfOpen},
				{op: "fail", want: StateOpen},
				{op: "reject", want: StateOpen},
				{op: "advance", advance: time.Second, want: StateHalfOpen},
				{op: "ok", want: StateClosed},
			},
		},
		{
			name: "half-open needs the configured probe count",
			cfg:  BreakerConfig{Threshold: 1, Cooldown: time.Second, Probes: 2},
			events: []breakerEvent{
				{op: "fail", want: StateOpen},
				{op: "advance", advance: time.Second, want: StateHalfOpen},
				{op: "ok", want: StateHalfOpen},
				{op: "ok", want: StateClosed},
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			clock := newFakeClock()
			tc.cfg.Clock = clock.Now
			set := NewBreakerSet(tc.cfg)
			b := set.For(origin)
			for i, ev := range tc.events {
				switch ev.op {
				case "ok", "fail":
					if !b.Allow() {
						t.Fatalf("event %d (%s): Allow refused", i, ev.op)
					}
					b.Record(ev.op == "ok")
				case "reject":
					if b.Allow() {
						t.Fatalf("event %d: Allow admitted while open", i)
					}
				case "advance":
					clock.Advance(ev.advance)
				default:
					t.Fatalf("bad op %q", ev.op)
				}
				if got := set.State(origin); got != ev.want {
					t.Fatalf("event %d (%s): state = %v, want %v", i, ev.op, got, ev.want)
				}
			}
		})
	}
}

func TestBreakerHalfOpenAdmitsOneProbe(t *testing.T) {
	clock := newFakeClock()
	set := NewBreakerSet(BreakerConfig{Threshold: 1, Cooldown: time.Second, Clock: clock.Now})
	b := set.For("o")
	b.Allow()
	b.Record(false) // trip
	clock.Advance(time.Second)
	if !b.Allow() {
		t.Fatal("first probe refused")
	}
	if b.Allow() {
		t.Fatal("second concurrent probe admitted")
	}
	b.Record(true)
	if got := set.State("o"); got != StateClosed {
		t.Fatalf("state = %v", got)
	}
}

func TestBreakerMetrics(t *testing.T) {
	clock := newFakeClock()
	set := NewBreakerSet(BreakerConfig{Threshold: 1, Cooldown: time.Second, Clock: clock.Now})
	reg := obs.NewRegistry()
	set.SetObs(reg)
	b := set.For("metrics.example")
	b.Allow()
	b.Record(false)
	snap := reg.Snapshot()
	var state float64 = -1
	for _, g := range snap.Gauges {
		if g.Name == "msite_breaker_state" && labelValueOf(g.Labels, "origin") == "metrics.example" {
			state = g.Value
		}
	}
	if state != float64(StateOpen) {
		t.Fatalf("msite_breaker_state = %v, want %v", state, float64(StateOpen))
	}
	if c, ok := snap.Counter("msite_breaker_transitions_total", "origin", "metrics.example", "to", "open"); !ok || c.Value != 1 {
		t.Fatalf("transition counter = %+v ok=%v", c, ok)
	}
}

func labelValueOf(labels []obs.Label, key string) string {
	for _, l := range labels {
		if l.Key == key {
			return l.Value
		}
	}
	return ""
}

func TestGetRetriesTransientFailures(t *testing.T) {
	var hits atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		if hits.Add(1) < 3 {
			http.Error(w, "flaky", http.StatusBadGateway)
			return
		}
		_, _ = w.Write([]byte("recovered"))
	}))
	defer srv.Close()

	reg := obs.NewRegistry()
	f := New(nil, WithRetries(4), WithBackoff(time.Millisecond, 4*time.Millisecond), WithObs(reg))
	page, err := f.Get(srv.URL)
	if err != nil || string(page.Body) != "recovered" {
		t.Fatalf("get = %v %q", err, page.Body)
	}
	if got := hits.Load(); got != 3 {
		t.Fatalf("origin hits = %d, want 3", got)
	}
	if c, ok := reg.Snapshot().Counter("msite_fetch_retries_total"); !ok || c.Value != 2 {
		t.Fatalf("retries counter = %+v ok=%v", c, ok)
	}
}

func TestGetDoesNotRetryClientErrors(t *testing.T) {
	var hits atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		hits.Add(1)
		http.Error(w, "nope", http.StatusNotFound)
	}))
	defer srv.Close()

	f := New(nil, WithRetries(3), WithBackoff(time.Millisecond, time.Millisecond))
	_, err := f.Get(srv.URL)
	var fe *Error
	if !errors.As(err, &fe) || fe.Kind != KindStatus || fe.Status != 404 {
		t.Fatalf("err = %v", err)
	}
	// Legacy StatusError remains reachable for existing callers.
	var se *StatusError
	if !errors.As(err, &se) || se.Status != 404 {
		t.Fatalf("StatusError not wrapped: %v", err)
	}
	if got := hits.Load(); got != 1 {
		t.Fatalf("origin hits = %d, want 1 (no retry on 4xx)", got)
	}
}

func TestErrorClassification(t *testing.T) {
	// Refused: a port with no listener.
	srv := httptest.NewServer(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {}))
	dead := srv.URL
	srv.Close()
	_, err := New(nil).Get(dead)
	var fe *Error
	if !errors.As(err, &fe) {
		t.Fatalf("err = %T %v", err, err)
	}
	if fe.Kind != KindRefused {
		t.Fatalf("kind = %q, want refused", fe.Kind)
	}
	if !Retryable(err) {
		t.Fatal("refused should be retryable")
	}

	// Timeout: a handler slower than the client deadline.
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-time.After(2 * time.Second):
		case <-r.Context().Done():
		}
	}))
	defer slow.Close()
	_, err = New(nil, WithTimeout(20*time.Millisecond)).Get(slow.URL)
	if !errors.As(err, &fe) || fe.Kind != KindTimeout {
		t.Fatalf("timeout err = %v", err)
	}
}

func TestBreakerShortCircuitsFetch(t *testing.T) {
	var hits atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		hits.Add(1)
		http.Error(w, "down", http.StatusServiceUnavailable)
	}))
	defer srv.Close()

	set := NewBreakerSet(BreakerConfig{Threshold: 2, Cooldown: time.Hour})
	f := New(nil, WithBreaker(set))
	for i := 0; i < 2; i++ {
		if _, err := f.Get(srv.URL); err == nil {
			t.Fatal("expected failure")
		}
	}
	before := hits.Load()
	_, err := f.Get(srv.URL)
	var fe *Error
	if !errors.As(err, &fe) || fe.Kind != KindBreakerOpen {
		t.Fatalf("err = %v, want breaker_open", err)
	}
	if Retryable(err) {
		t.Fatal("breaker_open must not be retryable")
	}
	if hits.Load() != before {
		t.Fatal("open breaker still contacted the origin")
	}
}

// TestBodyOverLimitIsTooLarge: a body one byte over the limit fails, on
// GET and POST alike, with a too_large error that is neither retried nor
// held against the origin, where it used to come back cut to the limit
// with no error; a body of exactly the limit is fetched whole.
func TestBodyOverLimitIsTooLarge(t *testing.T) {
	body := make([]byte, maxBodyBytes+1)
	var hits atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		n := maxBodyBytes
		if r.URL.Path == "/over" {
			n++
		}
		_, _ = w.Write(body[:n])
	}))
	defer srv.Close()

	set := NewBreakerSet(BreakerConfig{Threshold: 1, Cooldown: time.Hour})
	f := New(nil, WithRetries(3), WithBackoff(time.Millisecond, time.Millisecond), WithBreaker(set))
	fetches := map[string]func(url string) (*Page, error){
		"GET":  f.Get,
		"POST": func(url string) (*Page, error) { return f.PostForm(url, nil) },
	}
	for method, fetch := range fetches {
		hits.Store(0)
		page, err := fetch(srv.URL + "/over")
		var fe *Error
		if !errors.As(err, &fe) || fe.Kind != KindTooLarge || page != nil {
			t.Fatalf("%s of %d bytes: page %v, err %v; want a too_large error", method, maxBodyBytes+1, page != nil, err)
		}
		if Retryable(err) || hits.Load() != 1 {
			t.Fatalf("%s: too_large retried (%d origin hits)", method, hits.Load())
		}
		if st := set.State(fe.Origin); st != StateClosed {
			t.Fatalf("%s: breaker %v after too_large, want closed", method, st)
		}
		page, err = fetch(srv.URL + "/limit")
		if err != nil || len(page.Body) != maxBodyBytes {
			t.Fatalf("%s of %d bytes: err %v", method, maxBodyBytes, err)
		}
	}
}
