package fetch

import (
	"sync"
	"sync/atomic"
	"time"

	"msite/internal/obs"
)

// BreakerState is one circuit-breaker state. The numeric values are the
// msite_breaker_state{origin} gauge encoding: 0 closed, 1 half-open,
// 2 open.
type BreakerState int

// The breaker state machine: Closed (normal serving, counting
// consecutive origin-health failures) trips to Open at the failure
// threshold; Open rejects every request until the cooldown elapses,
// then admits a single probe in HalfOpen; a successful probe closes the
// breaker, a failed one reopens it.
const (
	StateClosed BreakerState = iota
	StateHalfOpen
	StateOpen
)

// String implements fmt.Stringer (and the metric's transition label).
func (s BreakerState) String() string {
	switch s {
	case StateClosed:
		return "closed"
	case StateHalfOpen:
		return "half-open"
	case StateOpen:
		return "open"
	default:
		return "unknown"
	}
}

// DefaultBreakerThreshold is how many consecutive origin-health
// failures trip a closed breaker.
const DefaultBreakerThreshold = 5

// DefaultBreakerCooldown is how long an open breaker rejects requests
// before admitting a half-open probe.
const DefaultBreakerCooldown = 5 * time.Second

// BreakerConfig tunes the per-origin circuit breakers of a BreakerSet.
// The zero value uses the defaults.
type BreakerConfig struct {
	// Threshold is the consecutive-failure count that trips a closed
	// breaker (default DefaultBreakerThreshold).
	Threshold int
	// Cooldown is the open → half-open delay (default
	// DefaultBreakerCooldown).
	Cooldown time.Duration
	// Probes is how many consecutive half-open successes close the
	// breaker again (default 1).
	Probes int
	// Clock is the time source (tests inject a fake one). Nil uses
	// time.Now.
	Clock func() time.Time
}

func (c BreakerConfig) withDefaults() BreakerConfig {
	if c.Threshold <= 0 {
		c.Threshold = DefaultBreakerThreshold
	}
	if c.Cooldown <= 0 {
		c.Cooldown = DefaultBreakerCooldown
	}
	if c.Probes <= 0 {
		c.Probes = 1
	}
	if c.Clock == nil {
		c.Clock = time.Now
	}
	return c
}

// BreakerSet holds one circuit breaker per origin host. One set is
// shared by every fetcher of a proxy (fetchers are per-session and
// short-lived; origin health is not), so a flapping origin trips once
// for all sessions. All methods are safe for concurrent use.
type BreakerSet struct {
	cfg BreakerConfig
	// reg is atomic, not under mu: breakers read it while holding their
	// own lock, and mixing the set lock in would invert lock order with
	// State (set → breaker).
	reg atomic.Pointer[obs.Registry]

	mu      sync.Mutex
	origins map[string]*Breaker
}

// NewBreakerSet returns an empty set with cfg's thresholds.
func NewBreakerSet(cfg BreakerConfig) *BreakerSet {
	return &BreakerSet{cfg: cfg.withDefaults(), origins: make(map[string]*Breaker)}
}

// SetObs starts exporting per-origin state gauges
// (msite_breaker_state{origin}: 0 closed, 1 half-open, 2 open) and
// transition counters (msite_breaker_transitions_total{origin,to}) on
// reg.
func (s *BreakerSet) SetObs(reg *obs.Registry) {
	s.reg.Store(reg)
	s.mu.Lock()
	breakers := make([]*Breaker, 0, len(s.origins))
	for _, b := range s.origins {
		breakers = append(breakers, b)
	}
	s.mu.Unlock()
	for _, b := range breakers {
		b.mu.Lock()
		b.emitState()
		b.mu.Unlock()
	}
}

// For returns the breaker for origin, creating it closed on first use.
func (s *BreakerSet) For(origin string) *Breaker {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.origins[origin]
	if !ok {
		b = &Breaker{set: s, origin: origin, cfg: s.cfg}
		s.origins[origin] = b
		b.mu.Lock()
		b.emitState()
		b.mu.Unlock()
	}
	return b
}

// State reports the current state of origin's breaker (closed if the
// origin has never been seen).
func (s *BreakerSet) State(origin string) BreakerState {
	s.mu.Lock()
	b, ok := s.origins[origin]
	s.mu.Unlock()
	if !ok {
		return StateClosed
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	// Surface the pending open → half-open transition without requiring
	// a request to observe it.
	if b.state == StateOpen && b.cfg.Clock().Sub(b.openedAt) >= b.cfg.Cooldown {
		return StateHalfOpen
	}
	return b.state
}

// registry returns the set's obs registry, or nil.
func (s *BreakerSet) registry() *obs.Registry { return s.reg.Load() }

// Breaker is one origin's circuit breaker.
type Breaker struct {
	set    *BreakerSet
	origin string
	cfg    BreakerConfig

	mu        sync.Mutex
	state     BreakerState
	failures  int // consecutive failures while closed
	successes int // consecutive probe successes while half-open
	openedAt  time.Time
	probing   bool // a half-open probe is in flight
}

// Allow reports whether a request to the origin may proceed. In the
// half-open state only one probe is admitted at a time; callers that
// proceed must call Record with the outcome.
func (b *Breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case StateClosed:
		return true
	case StateOpen:
		if b.cfg.Clock().Sub(b.openedAt) < b.cfg.Cooldown {
			return false
		}
		b.transition(StateHalfOpen)
		b.probing = true
		return true
	default: // StateHalfOpen
		if b.probing {
			return false
		}
		b.probing = true
		return true
	}
}

// Record feeds one request outcome into the state machine. ok means the
// origin answered (any response, even 4xx, proves liveness); !ok means
// an origin-health failure (timeout, refusal, reset, DNS, 5xx).
func (b *Breaker) Record(ok bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case StateClosed:
		if ok {
			b.failures = 0
			return
		}
		b.failures++
		if b.failures >= b.cfg.Threshold {
			b.open()
		}
	case StateHalfOpen:
		b.probing = false
		if !ok {
			b.open()
			return
		}
		b.successes++
		if b.successes >= b.cfg.Probes {
			b.reset()
			b.transition(StateClosed)
		}
	case StateOpen:
		// A straggler from before the trip; the cooldown governs now.
	}
}

// open trips the breaker (caller holds b.mu).
func (b *Breaker) open() {
	b.openedAt = b.cfg.Clock()
	b.reset()
	b.transition(StateOpen)
}

// reset clears the counters (caller holds b.mu).
func (b *Breaker) reset() {
	b.failures = 0
	b.successes = 0
	b.probing = false
}

// transition moves to next and emits metrics (caller holds b.mu).
func (b *Breaker) transition(next BreakerState) {
	if b.state == next {
		return
	}
	b.state = next
	b.emitState()
	if reg := b.set.registry(); reg != nil {
		reg.Counter("msite_breaker_transitions_total",
			"origin", b.origin, "to", next.String()).Inc()
	}
}

// emitState publishes the state gauge (caller holds b.mu).
func (b *Breaker) emitState() {
	if reg := b.set.registry(); reg != nil {
		reg.Gauge("msite_breaker_state", "origin", b.origin).Set(float64(b.state))
	}
}
