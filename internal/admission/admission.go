// Package admission is the overload-protection tier of the adaptation
// proxy. m.Site's economics depend on keeping the heavyweight
// fetch+layout+raster pipeline off the hot path (§4); this package makes
// sure a traffic spike cannot put it back on: a bounded concurrency
// limiter with a deadline-aware wait queue sheds work it could never
// finish in time (503 + Retry-After), and an in-flight coalescer folds N
// identical cold adaptations into one pipeline run. The design follows
// staged admission control (SEDA): say no early, cheaply, and with a
// useful hint, instead of queueing unboundedly and timing everyone out.
// Per-client limits are a front proxy's job: it sees the client address
// before any cookie, so forged cookies cannot buy fresh budgets there.
package admission

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"msite/internal/obs"
)

// Shed reasons, used as the `reason` label of
// msite_admission_shed_total and carried on ShedError.
const (
	// ReasonQueueFull: every pipeline slot and queue position was taken.
	ReasonQueueFull = "queue_full"
	// ReasonDeadline: the request's deadline would expire before a slot
	// could free up (shed on arrival), or expired while queued.
	ReasonDeadline = "deadline"
)

// ShedError reports a request refused by admission control. The proxy
// maps it to 503 with a Retry-After header derived from RetryAfter.
type ShedError struct {
	// Reason is one of the Reason* constants.
	Reason string
	// RetryAfter is the hint for when the client should try again.
	RetryAfter time.Duration
}

// Error implements error.
func (e *ShedError) Error() string {
	return fmt.Sprintf("admission: shed (%s), retry after %v", e.Reason, e.RetryAfter)
}

// IsShed reports whether err is an admission shed, returning it.
func IsShed(err error) (*ShedError, bool) {
	var shed *ShedError
	if errors.As(err, &shed) {
		return shed, true
	}
	return nil, false
}

// RetryAfterSeconds renders a Retry-After duration as whole seconds for
// the HTTP header: rounded up, never less than 1 (a Retry-After of 0
// invites an immediate retry storm).
func RetryAfterSeconds(d time.Duration) int {
	if d <= 0 {
		return 1
	}
	s := int(math.Ceil(d.Seconds()))
	if s < 1 {
		return 1
	}
	return s
}

// estimateWait is the queue arithmetic behind deadline shedding and
// Retry-After hints: with maxConcurrent pipeline slots and an average
// run time of avgRun, the request entering at queue position pos
// (0-based) expects to wait for pos+1 slot releases, which arrive every
// avgRun/maxConcurrent on average.
func estimateWait(pos, maxConcurrent int, avgRun time.Duration) time.Duration {
	if maxConcurrent <= 0 {
		maxConcurrent = 1
	}
	if avgRun <= 0 {
		return 0
	}
	return time.Duration(int64(avgRun) * int64(pos+1) / int64(maxConcurrent))
}

// DefaultExpectedRun seeds the limiter's run-time estimate before any
// pipeline run has completed. Cold adaptations are origin-bound, so the
// seed is deliberately pessimistic.
const DefaultExpectedRun = 500 * time.Millisecond

// LimiterConfig tunes a Limiter.
type LimiterConfig struct {
	// MaxConcurrent is the number of adaptation pipelines allowed to run
	// at once (required, > 0).
	MaxConcurrent int
	// QueueLen bounds how many requests may wait for a slot. 0 defaults
	// to 4×MaxConcurrent; negative disables queueing (shed immediately
	// when all slots are busy).
	QueueLen int
	// ExpectedRun seeds the average-run-time estimate used for deadline
	// shedding and Retry-After hints until real runs are observed.
	// 0 uses DefaultExpectedRun.
	ExpectedRun time.Duration
}

// waiter is one queued request.
type waiter struct {
	ready    chan struct{} // closed on admission
	admitted bool
}

// Limiter is a bounded adaptation-concurrency limiter with a
// deadline-aware FIFO wait queue. Safe for concurrent use. A nil
// Limiter admits everything. One Limiter is shared by every site of a
// MultiProxy: capacity is a property of the process, not a page.
type Limiter struct {
	maxConcurrent int
	queueLen      int

	mu     sync.Mutex
	active int
	queue  []*waiter
	// avgRun is the EWMA of completed run durations, the basis of
	// estimateWait.
	avgRun time.Duration

	depth *obs.Gauge // msite_admission_queue_depth
}

// NewLimiter builds a limiter from cfg.
func NewLimiter(cfg LimiterConfig) (*Limiter, error) {
	if cfg.MaxConcurrent <= 0 {
		return nil, errors.New("admission: MaxConcurrent must be > 0")
	}
	queueLen := cfg.QueueLen
	if queueLen == 0 {
		queueLen = 4 * cfg.MaxConcurrent
	}
	if queueLen < 0 {
		queueLen = 0
	}
	expected := cfg.ExpectedRun
	if expected <= 0 {
		expected = DefaultExpectedRun
	}
	return &Limiter{
		maxConcurrent: cfg.MaxConcurrent,
		queueLen:      queueLen,
		avgRun:        expected,
	}, nil
}

// SetObs registers the limiter's queue-depth gauge on reg. Sheds are
// counted where they are answered (the proxy's shedError), not here.
func (l *Limiter) SetObs(reg *obs.Registry) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.depth = reg.Gauge("msite_admission_queue_depth")
}

// Acquire admits one pipeline run, waiting in the bounded queue when all
// slots are busy. The returned release func must be called exactly once
// when the run finishes. A request that cannot start before ctx's
// deadline — on arrival or while queued — is shed with a *ShedError.
// A nil Limiter admits at once.
func (l *Limiter) Acquire(ctx context.Context) (release func(), err error) {
	if l == nil {
		return func() {}, nil
	}
	l.mu.Lock()
	if l.active < l.maxConcurrent && len(l.queue) == 0 {
		l.active++
		l.mu.Unlock()
		return l.releaser(time.Now()), nil
	}
	pos := len(l.queue)
	if pos >= l.queueLen {
		retry := estimateWait(pos, l.maxConcurrent, l.avgRun)
		l.mu.Unlock()
		return nil, &ShedError{Reason: ReasonQueueFull, RetryAfter: retry}
	}
	wait := estimateWait(pos, l.maxConcurrent, l.avgRun)
	if dl, ok := ctx.Deadline(); ok && time.Now().Add(wait).After(dl) {
		l.mu.Unlock()
		return nil, &ShedError{Reason: ReasonDeadline, RetryAfter: wait}
	}
	w := &waiter{ready: make(chan struct{})}
	l.queue = append(l.queue, w)
	l.setDepthLocked()
	l.mu.Unlock()

	select {
	case <-w.ready:
		return l.releaser(time.Now()), nil
	case <-ctx.Done():
		l.mu.Lock()
		if w.admitted {
			// Lost the race: the slot was already handed to us. Give it
			// back so the queue keeps draining.
			l.releaseLocked(0)
			l.mu.Unlock()
			return nil, ctx.Err()
		}
		l.removeLocked(w)
		retry := estimateWait(0, l.maxConcurrent, l.avgRun)
		l.mu.Unlock()
		return nil, &ShedError{Reason: ReasonDeadline, RetryAfter: retry}
	}
}

// releaser returns the once-only release func for an admitted run.
func (l *Limiter) releaser(start time.Time) func() {
	var once sync.Once
	return func() {
		once.Do(func() {
			l.mu.Lock()
			l.releaseLocked(time.Since(start))
			l.mu.Unlock()
		})
	}
}

// releaseLocked frees one slot, folds the run duration into the EWMA,
// and admits the queue head.
func (l *Limiter) releaseLocked(ran time.Duration) {
	l.active--
	if ran > 0 {
		// EWMA with α = 1/4: responsive to load shifts, stable under
		// jitter.
		l.avgRun = (3*l.avgRun + ran) / 4
	}
	for l.active < l.maxConcurrent && len(l.queue) > 0 {
		w := l.queue[0]
		l.queue = l.queue[1:]
		w.admitted = true
		l.active++
		close(w.ready)
	}
	l.setDepthLocked()
}

// removeLocked drops a waiter that gave up (deadline or disconnect).
func (l *Limiter) removeLocked(w *waiter) {
	for i, q := range l.queue {
		if q == w {
			l.queue = append(l.queue[:i], l.queue[i+1:]...)
			break
		}
	}
	l.setDepthLocked()
}

func (l *Limiter) setDepthLocked() {
	if l.depth != nil {
		l.depth.Set(float64(len(l.queue)))
	}
}

// QueueDepth returns the number of requests currently waiting.
func (l *Limiter) QueueDepth() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.queue)
}

// Active returns the number of admitted runs in flight.
func (l *Limiter) Active() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.active
}
