package admission

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestLimiterBoundsConcurrency(t *testing.T) {
	const maxConcurrent = 3
	l, err := NewLimiter(LimiterConfig{MaxConcurrent: maxConcurrent, QueueLen: 100})
	if err != nil {
		t.Fatal(err)
	}
	var active, peak, total atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 40; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			release, err := l.Acquire(context.Background())
			if err != nil {
				t.Errorf("Acquire: %v", err)
				return
			}
			n := active.Add(1)
			for {
				p := peak.Load()
				if n <= p || peak.CompareAndSwap(p, n) {
					break
				}
			}
			time.Sleep(time.Millisecond)
			active.Add(-1)
			total.Add(1)
			release()
		}()
	}
	wg.Wait()
	if got := peak.Load(); got > maxConcurrent {
		t.Errorf("peak concurrency = %d, want <= %d", got, maxConcurrent)
	}
	if got := total.Load(); got != 40 {
		t.Errorf("completed = %d, want 40", got)
	}
	if got := l.Active(); got != 0 {
		t.Errorf("active after drain = %d, want 0", got)
	}
	if got := l.QueueDepth(); got != 0 {
		t.Errorf("queue depth after drain = %d, want 0", got)
	}
}

func TestLimiterQueueFullSheds(t *testing.T) {
	l, err := NewLimiter(LimiterConfig{MaxConcurrent: 1, QueueLen: -1})
	if err != nil {
		t.Fatal(err)
	}
	release, err := l.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer release()

	_, err = l.Acquire(context.Background())
	shed, ok := IsShed(err)
	if !ok {
		t.Fatalf("Acquire with full queue: err = %v, want ShedError", err)
	}
	if shed.Reason != ReasonQueueFull {
		t.Errorf("reason = %q, want %q", shed.Reason, ReasonQueueFull)
	}
	if shed.RetryAfter <= 0 {
		t.Errorf("RetryAfter = %v, want > 0", shed.RetryAfter)
	}
}

func TestLimiterShedsDoomedDeadlineOnArrival(t *testing.T) {
	// Seed a long expected run so the wait estimate for a queued request
	// dwarfs the request's deadline.
	l, err := NewLimiter(LimiterConfig{MaxConcurrent: 1, QueueLen: 8, ExpectedRun: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	release, err := l.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer release()

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = l.Acquire(ctx)
	shed, ok := IsShed(err)
	if !ok {
		t.Fatalf("Acquire with doomed deadline: err = %v, want ShedError", err)
	}
	if shed.Reason != ReasonDeadline {
		t.Errorf("reason = %q, want %q", shed.Reason, ReasonDeadline)
	}
	// Shed on arrival means no waiting: the caller learns immediately,
	// not when its deadline expires.
	if waited := time.Since(start); waited > 40*time.Millisecond {
		t.Errorf("shed took %v, want immediate", waited)
	}
	if got := l.QueueDepth(); got != 0 {
		t.Errorf("queue depth = %d, want 0 (doomed request never queued)", got)
	}
}

func TestLimiterShedsExpiredQueueEntry(t *testing.T) {
	// A short expected run admits the request into the queue; the held
	// slot then outlives the request's deadline.
	l, err := NewLimiter(LimiterConfig{MaxConcurrent: 1, QueueLen: 8, ExpectedRun: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	release, err := l.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	_, err = l.Acquire(ctx)
	shed, ok := IsShed(err)
	if !ok {
		t.Fatalf("Acquire expiring in queue: err = %v, want ShedError", err)
	}
	if shed.Reason != ReasonDeadline {
		t.Errorf("reason = %q, want %q", shed.Reason, ReasonDeadline)
	}
	if got := l.QueueDepth(); got != 0 {
		t.Errorf("queue depth = %d, want 0 (expired waiter removed)", got)
	}
	// The slot still works: release it and the next acquire succeeds.
	release()
	release2, err := l.Acquire(context.Background())
	if err != nil {
		t.Fatalf("Acquire after drain: %v", err)
	}
	release2()
}

func TestLimiterReleaseIdempotent(t *testing.T) {
	l, err := NewLimiter(LimiterConfig{MaxConcurrent: 2})
	if err != nil {
		t.Fatal(err)
	}
	release, err := l.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	release()
	release() // second call must not free a slot twice
	if got := l.Active(); got != 0 {
		t.Errorf("active = %d, want 0", got)
	}
}

func TestRetryAfterSeconds(t *testing.T) {
	tests := []struct {
		d    time.Duration
		want int
	}{
		{0, 1},
		{-time.Second, 1},
		{time.Millisecond, 1},
		{999 * time.Millisecond, 1},
		{time.Second, 1},
		{1001 * time.Millisecond, 2},
		{2500 * time.Millisecond, 3},
		{10 * time.Second, 10},
	}
	for _, tt := range tests {
		if got := RetryAfterSeconds(tt.d); got != tt.want {
			t.Errorf("RetryAfterSeconds(%v) = %d, want %d", tt.d, got, tt.want)
		}
	}
}

func TestEstimateWait(t *testing.T) {
	tests := []struct {
		pos, maxConcurrent int
		avgRun             time.Duration
		want               time.Duration
	}{
		{0, 1, time.Second, time.Second},
		{1, 1, time.Second, 2 * time.Second},
		{0, 4, time.Second, 250 * time.Millisecond},
		{7, 4, time.Second, 2 * time.Second},
		{0, 0, time.Second, time.Second}, // degenerate concurrency clamps to 1
		{3, 2, 0, 0},                     // no estimate yet
	}
	for _, tt := range tests {
		if got := estimateWait(tt.pos, tt.maxConcurrent, tt.avgRun); got != tt.want {
			t.Errorf("estimateWait(%d, %d, %v) = %v, want %v",
				tt.pos, tt.maxConcurrent, tt.avgRun, got, tt.want)
		}
	}
}

func TestRateLimiter(t *testing.T) {
	now := time.Unix(1000, 0)
	rl := NewRateLimiter(2, 3) // 2 tokens/s, bucket of 3
	rl.setClock(func() time.Time { return now })

	// The burst admits exactly 3 back-to-back requests.
	for i := 0; i < 3; i++ {
		if ok, _ := rl.Allow("client"); !ok {
			t.Fatalf("request %d rejected inside burst", i)
		}
	}
	ok, retry := rl.Allow("client")
	if ok {
		t.Fatal("request 4 allowed, want rejected")
	}
	// Empty bucket at 2 tokens/s: one token is 500ms away.
	if retry != 500*time.Millisecond {
		t.Errorf("retryAfter = %v, want 500ms", retry)
	}

	// Other clients are unaffected.
	if ok, _ := rl.Allow("other"); !ok {
		t.Error("other client rejected by this client's exhaustion")
	}

	// After the hinted wait, exactly one request fits again.
	now = now.Add(retry)
	if ok, _ := rl.Allow("client"); !ok {
		t.Error("request after refill rejected")
	}
	if ok, _ := rl.Allow("client"); ok {
		t.Error("second request after single-token refill allowed")
	}

	// A long idle period caps the bucket at burst, not beyond.
	now = now.Add(time.Hour)
	allowed := 0
	for i := 0; i < 10; i++ {
		if ok, _ := rl.Allow("client"); ok {
			allowed++
		}
	}
	if allowed != 3 {
		t.Errorf("after idle, burst admitted %d, want 3", allowed)
	}
}

func TestRateLimiterDefaultBurst(t *testing.T) {
	if rl := NewRateLimiter(1, 0); rl.burst != 5 {
		t.Errorf("burst for rate 1 = %v, want 5 (floor)", rl.burst)
	}
	if rl := NewRateLimiter(10, 0); rl.burst != 20 {
		t.Errorf("burst for rate 10 = %v, want 20 (2x rate)", rl.burst)
	}
}

func TestRateLimiterPrunesIdleBuckets(t *testing.T) {
	now := time.Unix(1000, 0)
	rl := NewRateLimiter(1, 1)
	rl.setClock(func() time.Time { return now })
	for i := 0; i < maxBuckets; i++ {
		rl.Allow(string(rune('a')) + time.Duration(i).String())
	}
	if got := rl.Len(); got != maxBuckets {
		t.Fatalf("buckets = %d, want %d", got, maxBuckets)
	}
	// Everyone refills over the next hour; the next new client triggers
	// the prune and the map collapses.
	now = now.Add(time.Hour)
	rl.Allow("fresh")
	if got := rl.Len(); got != 1 {
		t.Errorf("buckets after prune = %d, want 1", got)
	}
}

func TestCoalescerSingleExecution(t *testing.T) {
	c := NewCoalescer[int]()
	const callers = 32
	var runs atomic.Int64
	started := make(chan struct{})
	release := make(chan struct{})
	var wg sync.WaitGroup
	results := make([]int, callers)
	coalesced := make([]bool, callers)

	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, co, err := c.Do(context.Background(), "key", func(context.Context) (int, error) {
				runs.Add(1)
				close(started)
				<-release
				return 42, nil
			})
			if err != nil {
				t.Errorf("caller %d: %v", i, err)
			}
			results[i], coalesced[i] = v, co
		}(i)
	}

	<-started
	// Wait until every caller has joined the in-flight call, then let it
	// finish — no timing assumptions.
	for c.Waiters("key") < callers {
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	if got := runs.Load(); got != 1 {
		t.Fatalf("executions = %d, want exactly 1", got)
	}
	nCoalesced := 0
	for i := range results {
		if results[i] != 42 {
			t.Errorf("caller %d got %d, want 42", i, results[i])
		}
		if coalesced[i] {
			nCoalesced++
		}
	}
	if nCoalesced != callers-1 {
		t.Errorf("coalesced callers = %d, want %d", nCoalesced, callers-1)
	}
	if c.InFlight() != 0 {
		t.Errorf("in-flight after drain = %d, want 0", c.InFlight())
	}
}

func TestCoalescerSequentialCallsRunSeparately(t *testing.T) {
	c := NewCoalescer[int]()
	var runs atomic.Int64
	for i := 0; i < 3; i++ {
		_, co, err := c.Do(context.Background(), "key", func(context.Context) (int, error) {
			runs.Add(1)
			return i, nil
		})
		if err != nil || co {
			t.Fatalf("call %d: coalesced=%v err=%v, want fresh run", i, co, err)
		}
	}
	if got := runs.Load(); got != 3 {
		t.Errorf("executions = %d, want 3 (no in-flight call to share)", got)
	}
}

func TestCoalescerJoinerCancelKeepsBuildAlive(t *testing.T) {
	c := NewCoalescer[int]()
	started := make(chan struct{})
	release := make(chan struct{})
	var buildCanceled atomic.Bool

	leaderDone := make(chan error, 1)
	go func() {
		_, _, err := c.Do(context.Background(), "key", func(bctx context.Context) (int, error) {
			close(started)
			<-release
			buildCanceled.Store(bctx.Err() != nil)
			return 7, nil
		})
		leaderDone <- err
	}()
	<-started

	// A joiner with a canceled context leaves; the build must survive for
	// the leader.
	jctx, jcancel := context.WithCancel(context.Background())
	joinerDone := make(chan error, 1)
	go func() {
		_, _, err := c.Do(jctx, "key", func(context.Context) (int, error) {
			t.Error("joiner ran its own build")
			return 0, nil
		})
		joinerDone <- err
	}()
	for c.Waiters("key") < 2 {
		time.Sleep(time.Millisecond)
	}
	jcancel()
	if err := <-joinerDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("joiner err = %v, want context.Canceled", err)
	}

	close(release)
	if err := <-leaderDone; err != nil {
		t.Fatalf("leader err = %v, want nil", err)
	}
	if buildCanceled.Load() {
		t.Error("build context canceled while the leader still wanted it")
	}
}

func TestCoalescerAllCallersGoneCancelsBuild(t *testing.T) {
	c := NewCoalescer[int]()
	started := make(chan struct{})
	canceled := make(chan struct{})

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, _, err := c.Do(ctx, "key", func(bctx context.Context) (int, error) {
			close(started)
			<-bctx.Done() // the build notices abandonment promptly
			close(canceled)
			return 0, bctx.Err()
		})
		done <- err
	}()
	<-started
	cancel()

	select {
	case <-canceled:
	case <-time.After(5 * time.Second):
		t.Fatal("build context not canceled after every caller left")
	}
	<-done
}

// TestCoalescerAbandonedCallNotJoined: a call canceled because every
// participant left keeps draining until fn returns; a caller arriving in
// that window gets a fresh run, not the dying call's cancellation, and
// the draining call's exit leaves the fresh one registered.
func TestCoalescerAbandonedCallNotJoined(t *testing.T) {
	c := NewCoalescer[int]()
	started, drain := make(chan struct{}), make(chan struct{})

	ctx, cancel := context.WithCancel(context.Background())
	leaderDone := make(chan error, 1)
	go func() {
		_, _, err := c.Do(ctx, "key", func(bctx context.Context) (int, error) {
			close(started)
			<-bctx.Done()
			<-drain // still in the map, already canceled
			return 0, bctx.Err()
		})
		leaderDone <- err
	}()
	<-started
	cancel()
	for c.Waiters("key") > 0 {
		time.Sleep(time.Millisecond)
	}

	freshStarted, release := make(chan struct{}), make(chan struct{})
	freshDone := make(chan error, 1)
	var got int
	var coalesced bool
	go func() {
		var err error
		got, coalesced, err = c.Do(context.Background(), "key", func(bctx context.Context) (int, error) {
			close(freshStarted)
			<-release
			return 9, bctx.Err()
		})
		freshDone <- err
	}()
	select {
	case <-freshStarted:
	case <-time.After(5 * time.Second):
		t.Fatal("new caller joined the abandoned call instead of starting its own")
	}

	close(drain)
	if err := <-leaderDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("abandoned leader err = %v, want context.Canceled", err)
	}
	if c.InFlight() != 1 || c.Waiters("key") != 1 {
		t.Fatalf("after the abandoned call drained: in-flight %d, waiters %d; want the fresh call still registered",
			c.InFlight(), c.Waiters("key"))
	}
	close(release)
	if err := <-freshDone; err != nil || got != 9 || coalesced {
		t.Fatalf("fresh call = (%d, coalesced=%v, %v), want (9, false, nil)", got, coalesced, err)
	}
	if c.InFlight() != 0 {
		t.Errorf("in-flight after drain = %d, want 0", c.InFlight())
	}
}

func TestControllerNilSafe(t *testing.T) {
	var c *Controller
	release, err := c.Acquire(context.Background())
	if err != nil {
		t.Fatalf("nil controller Acquire: %v", err)
	}
	release()
	if ok, _ := c.AllowClient("anyone"); !ok {
		t.Error("nil controller rejected a client")
	}
	if c.Limiter() != nil {
		t.Error("nil controller returned a limiter")
	}
	c.SetObs(nil)
}

func TestControllerConfig(t *testing.T) {
	c, err := NewController(Config{MaxConcurrent: 2, RatePerSec: 1, Burst: 1})
	if err != nil {
		t.Fatal(err)
	}
	if c.Limiter() == nil {
		t.Fatal("limiter not built")
	}
	if ok, _ := c.AllowClient("k"); !ok {
		t.Fatal("first request rejected")
	}
	if ok, retry := c.AllowClient("k"); ok || retry <= 0 {
		t.Fatalf("second request: ok=%v retry=%v, want rejection with hint", ok, retry)
	}

	open, err := NewController(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if open.Limiter() != nil {
		t.Error("zero config built a limiter")
	}
	if ok, _ := open.AllowClient("k"); !ok {
		t.Error("zero config rejected a client")
	}
}
