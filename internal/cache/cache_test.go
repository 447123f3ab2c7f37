package cache

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func (f *fakeClock) Now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.now
}

func (f *fakeClock) Advance(d time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.now = f.now.Add(d)
}

func newTestCache() (*Cache, *fakeClock) {
	clk := &fakeClock{now: time.Unix(1_000_000, 0)}
	return NewWithClock(clk.Now), clk
}

func TestPutGet(t *testing.T) {
	c, _ := newTestCache()
	c.Put("k", Entry{Data: []byte("v"), MIME: "text/plain"}, time.Minute)
	e, ok := c.Get("k")
	if !ok || string(e.Data) != "v" || e.MIME != "text/plain" {
		t.Fatalf("get = %+v, %v", e, ok)
	}
	if _, ok := c.Get("missing"); ok {
		t.Fatal("missing key should miss")
	}
}

func TestExpiry(t *testing.T) {
	c, clk := newTestCache()
	c.Put("k", Entry{Data: []byte("v")}, time.Hour)
	clk.Advance(59 * time.Minute)
	if _, ok := c.Get("k"); !ok {
		t.Fatal("should still be live")
	}
	clk.Advance(2 * time.Minute)
	if _, ok := c.Get("k"); ok {
		t.Fatal("should be expired")
	}
}

func TestPutZeroTTLIgnored(t *testing.T) {
	c, _ := newTestCache()
	c.Put("k", Entry{Data: []byte("v")}, 0)
	if c.Len() != 0 {
		t.Fatal("zero ttl should not store")
	}
}

func TestGetOrFillCachesResult(t *testing.T) {
	c, _ := newTestCache()
	calls := 0
	fill := func() (Entry, error) {
		calls++
		return Entry{Data: []byte("rendered")}, nil
	}
	for i := 0; i < 3; i++ {
		e, err := c.GetOrFill("snap", time.Hour, fill)
		if err != nil || string(e.Data) != "rendered" {
			t.Fatalf("fill %d: %v %v", i, e, err)
		}
	}
	if calls != 1 {
		t.Fatalf("fill calls = %d, want 1", calls)
	}
}

func TestGetOrFillZeroTTLNotStored(t *testing.T) {
	c, _ := newTestCache()
	calls := 0
	fill := func() (Entry, error) {
		calls++
		return Entry{Data: []byte("x")}, nil
	}
	_, _ = c.GetOrFill("k", 0, fill)
	_, _ = c.GetOrFill("k", 0, fill)
	if calls != 2 {
		t.Fatalf("calls = %d, want 2 (uncacheable)", calls)
	}
}

func TestGetOrFillError(t *testing.T) {
	c, _ := newTestCache()
	boom := errors.New("render failed")
	if _, err := c.GetOrFill("k", time.Hour, func() (Entry, error) {
		return Entry{}, boom
	}); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	// After the failure the key refills.
	e, err := c.GetOrFill("k", time.Hour, func() (Entry, error) {
		return Entry{Data: []byte("ok")}, nil
	})
	if err != nil || string(e.Data) != "ok" {
		t.Fatalf("refill = %v %v", e, err)
	}
}

// TestGetOrFillRefillsExpiredEntry: an expired entry is not served; the
// caller that finds it runs the fill in the foreground and gets fresh bytes.
func TestGetOrFillRefillsExpiredEntry(t *testing.T) {
	c, clk := newTestCache()
	calls := 0
	fill := func(v string) func() (Entry, error) {
		return func() (Entry, error) {
			calls++
			return Entry{Data: []byte(v)}, nil
		}
	}
	if _, err := c.GetOrFill("k", time.Minute, fill("v1")); err != nil {
		t.Fatal(err)
	}
	clk.Advance(2 * time.Minute)
	e, err := c.GetOrFill("k", time.Minute, fill("v2"))
	if err != nil || string(e.Data) != "v2" || calls != 2 {
		t.Fatalf("expired entry = %q, %v after %d fills; want v2 after 2", e.Data, err, calls)
	}
}

func TestGetOrFillSingleFlight(t *testing.T) {
	c, _ := newTestCache()
	var calls int32
	var release = make(chan struct{})
	fill := func() (Entry, error) {
		atomic.AddInt32(&calls, 1)
		<-release
		return Entry{Data: []byte("once")}, nil
	}
	const n = 16
	var wg sync.WaitGroup
	results := make([]Entry, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			e, err := c.GetOrFill("hot", time.Hour, fill)
			if err != nil {
				t.Errorf("worker %d: %v", i, err)
				return
			}
			results[i] = e
		}(i)
	}
	// Give workers a moment to pile onto the pending fill.
	time.Sleep(10 * time.Millisecond)
	close(release)
	wg.Wait()
	if got := atomic.LoadInt32(&calls); got != 1 {
		t.Fatalf("fill ran %d times, want 1", got)
	}
	for i, e := range results {
		if string(e.Data) != "once" {
			t.Fatalf("worker %d got %q", i, e.Data)
		}
	}
}

func TestDeletePurgeSweepLen(t *testing.T) {
	c, clk := newTestCache()
	c.Put("a", Entry{Data: []byte("1")}, time.Minute)
	c.Put("b", Entry{Data: []byte("2")}, time.Hour)
	if c.Len() != 2 {
		t.Fatalf("len = %d", c.Len())
	}
	c.Delete("a")
	if _, ok := c.Get("a"); ok {
		t.Fatal("deleted key present")
	}
	c.Put("a", Entry{Data: []byte("1")}, time.Minute)
	clk.Advance(30 * time.Minute)
	if n := c.Sweep(); n != 1 {
		t.Fatalf("sweep = %d, want 1", n)
	}
	c.Purge()
	if c.Len() != 0 {
		t.Fatal("purge left entries")
	}
}

func TestStats(t *testing.T) {
	c, _ := newTestCache()
	c.Put("k", Entry{Data: []byte("v")}, time.Hour)
	c.Get("k")
	c.Get("k")
	c.Get("miss")
	_, _ = c.GetOrFill("f", time.Hour, func() (Entry, error) { return Entry{}, nil })
	s := c.Stats()
	if s.Hits != 2 || s.Misses != 2 || s.Fills != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

// TestLookupCountsOnlyHits: Lookup counts a hit as Get does and leaves a
// miss to the GetOrFill that follows it, so a lookup, miss and fill count
// one miss, not two.
func TestLookupCountsOnlyHits(t *testing.T) {
	c, clk := newTestCache()
	if _, ok := c.Lookup("k"); ok {
		t.Fatal("empty cache hit")
	}
	_, _ = c.GetOrFill("k", time.Hour, func() (Entry, error) { return Entry{Data: []byte("v")}, nil })
	if e, ok := c.Lookup("k"); !ok || string(e.Data) != "v" {
		t.Fatalf("lookup = %+v, %v", e, ok)
	}
	clk.Advance(2 * time.Hour)
	if _, ok := c.Lookup("k"); ok {
		t.Fatal("expired entry hit")
	}
	if s := c.Stats(); s.Hits != 1 || s.Misses != 1 || s.Fills != 1 {
		t.Fatalf("stats = %+v, want 1 hit, 1 miss, 1 fill", s)
	}
}

func TestConcurrentMixedOps(t *testing.T) {
	c, _ := newTestCache()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				key := fmt.Sprintf("k%d", j%10)
				switch j % 4 {
				case 0:
					c.Put(key, Entry{Data: []byte{byte(j)}}, time.Minute)
				case 1:
					c.Get(key)
				case 2:
					_, _ = c.GetOrFill(key, time.Minute, func() (Entry, error) {
						return Entry{Data: []byte("f")}, nil
					})
				case 3:
					c.Delete(key)
				}
			}
		}(i)
	}
	wg.Wait()
}
