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

// TestLimiterNilSafe: a nil Limiter is the "no admission control"
// setting, so every method the proxy calls on it must admit or no-op.
func TestLimiterNilSafe(t *testing.T) {
	var l *Limiter
	release, err := l.Acquire(context.Background())
	if err != nil {
		t.Fatalf("nil limiter Acquire: %v", err)
	}
	release()
	l.SetObs(nil)
}
