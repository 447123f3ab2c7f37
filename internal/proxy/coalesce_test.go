package proxy

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestCoalescerSingleExecution(t *testing.T) {
	c := newCoalescer[int]()
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
			v, co, err := c.do(context.Background(), "key", func(context.Context) (int, error) {
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
	for c.waiters("key") < callers {
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
	if c.inFlight() != 0 {
		t.Errorf("in-flight after drain = %d, want 0", c.inFlight())
	}
}

func TestCoalescerSequentialCallsRunSeparately(t *testing.T) {
	c := newCoalescer[int]()
	var runs atomic.Int64
	for i := 0; i < 3; i++ {
		_, co, err := c.do(context.Background(), "key", func(context.Context) (int, error) {
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
	c := newCoalescer[int]()
	started := make(chan struct{})
	release := make(chan struct{})
	var buildCanceled atomic.Bool

	leaderDone := make(chan error, 1)
	go func() {
		_, _, err := c.do(context.Background(), "key", func(bctx context.Context) (int, error) {
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
		_, _, err := c.do(jctx, "key", func(context.Context) (int, error) {
			t.Error("joiner ran its own build")
			return 0, nil
		})
		joinerDone <- err
	}()
	for c.waiters("key") < 2 {
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
	c := newCoalescer[int]()
	started := make(chan struct{})
	canceled := make(chan struct{})

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, _, err := c.do(ctx, "key", func(bctx context.Context) (int, error) {
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
	c := newCoalescer[int]()
	started, drain := make(chan struct{}), make(chan struct{})

	ctx, cancel := context.WithCancel(context.Background())
	leaderDone := make(chan error, 1)
	go func() {
		_, _, err := c.do(ctx, "key", func(bctx context.Context) (int, error) {
			close(started)
			<-bctx.Done()
			<-drain // still in the map, already canceled
			return 0, bctx.Err()
		})
		leaderDone <- err
	}()
	<-started
	cancel()
	for c.waiters("key") > 0 {
		time.Sleep(time.Millisecond)
	}

	freshStarted, release := make(chan struct{}), make(chan struct{})
	freshDone := make(chan error, 1)
	var got int
	var coalesced bool
	go func() {
		var err error
		got, coalesced, err = c.do(context.Background(), "key", func(bctx context.Context) (int, error) {
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
	if c.inFlight() != 1 || c.waiters("key") != 1 {
		t.Fatalf("after the abandoned call drained: in-flight %d, waiters %d; want the fresh call still registered",
			c.inFlight(), c.waiters("key"))
	}
	close(release)
	if err := <-freshDone; err != nil || got != 9 || coalesced {
		t.Fatalf("fresh call = (%d, coalesced=%v, %v), want (9, false, nil)", got, coalesced, err)
	}
	if c.inFlight() != 0 {
		t.Errorf("in-flight after drain = %d, want 0", c.inFlight())
	}
}
