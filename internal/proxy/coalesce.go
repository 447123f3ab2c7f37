package proxy

import (
	"context"
	"sync"
)

// coalescer folds concurrent identical work into one execution: N
// callers of do with the same key while a call is in flight share that
// call's result instead of running fn N times. This is the cache's
// single-flight idea lifted to the whole adaptation pipeline — a flash
// crowd of cold sessions on one page costs one fetch+adapt run, not one
// per session.
//
// The shared execution runs on the first caller's goroutine under a
// context detached from any one request's cancellation: it is canceled
// only when every participating caller has gone away, so one impatient
// client cannot abort work others still want, while a fully abandoned
// build stops promptly (including its origin fetches, backoff sleeps
// and wait for a build slot).
type coalescer[V any] struct {
	mu    sync.Mutex
	calls map[string]*call[V]
}

// call is one in-flight shared execution.
type call[V any] struct {
	done    chan struct{}
	cancel  context.CancelFunc
	waiters int
	val     V
	err     error
}

// newCoalescer returns an empty coalescer.
func newCoalescer[V any]() *coalescer[V] {
	return &coalescer[V]{calls: make(map[string]*call[V])}
}

// do runs fn once per key among concurrent callers and hands every
// caller the shared result. coalesced reports whether this caller
// reused another's execution. A caller whose ctx ends before the shared
// call finishes returns ctx.Err() (the call keeps running for the
// remaining participants; when none remain, fn's context is canceled).
// A call every participant has abandoned is already canceled and only
// draining: a new caller starts a fresh call in its place rather than
// joining one that can only fail.
func (c *coalescer[V]) do(ctx context.Context, key string, fn func(context.Context) (V, error)) (v V, coalesced bool, err error) {
	c.mu.Lock()
	if cl, ok := c.calls[key]; ok && cl.waiters > 0 {
		cl.waiters++
		c.mu.Unlock()
		c.watch(ctx, cl)
		select {
		case <-cl.done:
			return cl.val, true, cl.err
		case <-ctx.Done():
			var zero V
			return zero, true, ctx.Err()
		}
	}
	cl := &call[V]{done: make(chan struct{}), waiters: 1}
	// Detach the build from the leader's request: carry its values (the
	// trace, so pipeline spans still land somewhere) but not its
	// cancellation — the watcher refcount decides when to cancel.
	buildCtx, cancel := context.WithCancel(context.WithoutCancel(ctx))
	cl.cancel = cancel
	c.calls[key] = cl
	c.mu.Unlock()
	c.watch(ctx, cl)

	v, err = fn(buildCtx)

	c.mu.Lock()
	if c.calls[key] == cl {
		delete(c.calls, key)
	}
	c.mu.Unlock()
	cl.val, cl.err = v, err
	close(cl.done)
	cancel()
	return v, false, err
}

// watch decrements the call's participant count when ctx ends before
// the call does, canceling the shared execution once nobody is left
// waiting for it.
func (c *coalescer[V]) watch(ctx context.Context, cl *call[V]) {
	go func() {
		select {
		case <-cl.done:
		case <-ctx.Done():
			c.mu.Lock()
			cl.waiters--
			if cl.waiters <= 0 {
				cl.cancel()
			}
			c.mu.Unlock()
		}
	}()
}

// waiters returns how many callers are participating in key's in-flight
// call (0 when the key is idle).
func (c *coalescer[V]) waiters(key string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if cl, ok := c.calls[key]; ok {
		return cl.waiters
	}
	return 0
}

// inFlight returns the number of keys currently executing.
func (c *coalescer[V]) inFlight() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.calls)
}
