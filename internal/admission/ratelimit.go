package admission

import (
	"sync"
	"time"

	"msite/internal/obs"
)

// maxBuckets bounds the per-client bucket map; past it, a lazy prune
// drops buckets that have refilled completely (an idle client's bucket
// carries no information a fresh one wouldn't).
const maxBuckets = 16384

// RateLimiter is a per-client token-bucket rate limiter, keyed by
// session ID or remote address. Each key gets a bucket of depth burst
// refilling at rate tokens per second; a request spends one token.
// Safe for concurrent use.
type RateLimiter struct {
	rate  float64 // tokens per second
	burst float64
	clock func() time.Time

	mu      sync.Mutex
	buckets map[string]*bucket

	rejects *obs.Counter // msite_ratelimit_rejects_total
}

// bucket is one client's token state.
type bucket struct {
	tokens float64
	last   time.Time
}

// NewRateLimiter builds a limiter allowing ratePerSec steady-state
// requests per client with bursts of burst. burst <= 0 derives
// max(5, 2×ratePerSec).
func NewRateLimiter(ratePerSec, burst float64) *RateLimiter {
	if burst <= 0 {
		burst = 2 * ratePerSec
		if burst < 5 {
			burst = 5
		}
	}
	return &RateLimiter{
		rate:    ratePerSec,
		burst:   burst,
		clock:   time.Now,
		buckets: make(map[string]*bucket),
	}
}

// SetObs registers the reject counter on reg.
func (r *RateLimiter) SetObs(reg *obs.Registry) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.rejects = reg.Counter("msite_ratelimit_rejects_total")
}

// setClock swaps the time source for tests.
func (r *RateLimiter) setClock(clock func() time.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.clock = clock
}

// Allow spends one token from key's bucket. When the bucket is empty it
// reports false with the time until one token has refilled — the 429
// Retry-After hint.
func (r *RateLimiter) Allow(key string) (ok bool, retryAfter time.Duration) {
	now := r.clock()
	r.mu.Lock()
	defer r.mu.Unlock()
	b, found := r.buckets[key]
	if !found {
		if len(r.buckets) >= maxBuckets {
			r.pruneLocked(now)
		}
		b = &bucket{tokens: r.burst, last: now}
		r.buckets[key] = b
	} else {
		b.tokens += now.Sub(b.last).Seconds() * r.rate
		if b.tokens > r.burst {
			b.tokens = r.burst
		}
		b.last = now
	}
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	if r.rejects != nil {
		r.rejects.Inc()
	}
	deficit := 1 - b.tokens
	return false, time.Duration(deficit / r.rate * float64(time.Second))
}

// pruneLocked drops buckets that have fully refilled — clients idle long
// enough that forgetting them is indistinguishable from remembering.
func (r *RateLimiter) pruneLocked(now time.Time) {
	for key, b := range r.buckets {
		if b.tokens+now.Sub(b.last).Seconds()*r.rate >= r.burst {
			delete(r.buckets, key)
		}
	}
}

// Len returns the number of tracked client buckets.
func (r *RateLimiter) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.buckets)
}
