package netsim

import (
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// FaultConfig describes the failures an Injector feeds into an origin:
// probabilistic 5xx answers, connection resets and latency spikes. Rates
// are probabilities in [0, 1]; zero fields inject nothing of that kind.
type FaultConfig struct {
	// ErrorRate is the probability a request is answered 503.
	ErrorRate float64
	// ResetRate is the probability the TCP connection is torn down
	// without a response (the client sees a reset or unexpected EOF).
	ResetRate float64
	// SpikeRate is the probability LatencySpike is added before the
	// request is answered.
	SpikeRate    float64
	LatencySpike time.Duration
	// Seed makes the fault sequence reproducible.
	Seed int64
}

// FaultStats counts what an Injector actually did.
type FaultStats struct {
	// Requests is every request seen (including pass-throughs and
	// requests arriving while the injector is disabled).
	Requests uint64
	// Errors and Resets count the injected faults by kind.
	Errors uint64
	Resets uint64
	// Spikes counts latency spikes.
	Spikes uint64
	// FlapRejects counts requests answered 503 by a forced outage
	// (SetDown).
	FlapRejects uint64
}

// Injector wraps an origin handler with fault injection. It starts
// enabled; SetEnabled(false) passes every request through untouched
// (benchmarks warm caches that way before turning the chaos on), and
// SetDown(true) forces a full outage regardless of the configured
// rates. All methods are safe for concurrent use.
type Injector struct {
	cfg     FaultConfig
	enabled atomic.Bool
	down    atomic.Bool

	mu  sync.Mutex
	rng *rand.Rand

	requests    atomic.Uint64
	errors      atomic.Uint64
	resets      atomic.Uint64
	spikes      atomic.Uint64
	flapRejects atomic.Uint64
}

// NewInjector builds an enabled injector for cfg.
func NewInjector(cfg FaultConfig) *Injector {
	in := &Injector{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
	in.enabled.Store(true)
	return in
}

// SetEnabled turns fault injection on or off (requests pass through
// untouched while off).
func (in *Injector) SetEnabled(on bool) { in.enabled.Store(on) }

// Enabled reports whether faults are being injected.
func (in *Injector) Enabled() bool { return in.enabled.Load() }

// SetDown forces (or lifts) a full outage: while down, every request is
// answered 503 no matter the configured rates.
func (in *Injector) SetDown(down bool) { in.down.Store(down) }

// Stats snapshots the injector's counters.
func (in *Injector) Stats() FaultStats {
	return FaultStats{
		Requests:    in.requests.Load(),
		Errors:      in.errors.Load(),
		Resets:      in.resets.Load(),
		Spikes:      in.spikes.Load(),
		FlapRejects: in.flapRejects.Load(),
	}
}

// roll draws a uniform [0,1) variate from the seeded stream.
func (in *Injector) roll() float64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.rng.Float64()
}

// Wrap returns next with cfg's faults injected in front of it.
func (in *Injector) Wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		in.requests.Add(1)
		if !in.enabled.Load() {
			next.ServeHTTP(w, r)
			return
		}
		if in.down.Load() {
			in.flapRejects.Add(1)
			http.Error(w, "origin down (injected outage)", http.StatusServiceUnavailable)
			return
		}
		if in.cfg.SpikeRate > 0 && in.roll() < in.cfg.SpikeRate {
			in.spikes.Add(1)
			time.Sleep(in.cfg.LatencySpike)
		}
		if in.cfg.ResetRate > 0 && in.roll() < in.cfg.ResetRate {
			if hj, ok := w.(http.Hijacker); ok {
				if conn, _, err := hj.Hijack(); err == nil {
					in.resets.Add(1)
					_ = conn.Close()
					return
				}
			}
			// No hijack support: degrade to an injected error.
			in.errors.Add(1)
			http.Error(w, "injected reset", http.StatusBadGateway)
			return
		}
		if in.cfg.ErrorRate > 0 && in.roll() < in.cfg.ErrorRate {
			in.errors.Add(1)
			http.Error(w, "injected origin error", http.StatusServiceUnavailable)
			return
		}
		next.ServeHTTP(w, r)
	})
}
