package cache

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"msite/internal/obs"
)

// fakeTier is an in-memory SecondTier with optional per-call blocking,
// standing in for internal/store (which cannot be imported here without
// a cycle in the test build graph).
type fakeTier struct {
	mu      sync.Mutex
	m       map[string]fakeRec
	puts    int
	deletes int
	gets    int
	// block, when non-nil, stalls every Put until the channel closes —
	// the stalled-disk fault.
	block chan struct{}
	// failPuts makes every Put error.
	failPuts bool
}

type fakeRec struct {
	data    []byte
	mime    string
	expires time.Time
}

func newFakeTier() *fakeTier {
	return &fakeTier{m: make(map[string]fakeRec)}
}

func (f *fakeTier) Get(key string) ([]byte, string, time.Time, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.gets++
	r, ok := f.m[key]
	if !ok {
		return nil, "", time.Time{}, false
	}
	return r.data, r.mime, r.expires, true
}

func (f *fakeTier) Put(key string, data []byte, mime string, ttl time.Duration) error {
	if f.block != nil {
		<-f.block
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.failPuts {
		return errors.New("disk full")
	}
	f.puts++
	var exp time.Time
	if ttl > 0 {
		exp = time.Now().Add(ttl)
	}
	f.m[key] = fakeRec{data: append([]byte(nil), data...), mime: mime, expires: exp}
	return nil
}

func (f *fakeTier) Delete(key string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.deletes++
	delete(f.m, key)
	return nil
}

// Keys implements KeyLister (insertion order is good enough here).
func (f *fakeTier) Keys() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	keys := make([]string, 0, len(f.m))
	for k := range f.m {
		keys = append(keys, k)
	}
	return keys
}

func newTieredTest(t *testing.T, tier SecondTier) *Tiered {
	t.Helper()
	tc := NewTiered(New(), tier)
	t.Cleanup(tc.Close)
	return tc
}

func TestTieredWriteThroughAndFallthrough(t *testing.T) {
	tier := newFakeTier()
	tc := newTieredTest(t, tier)

	fills := 0
	fill := func() (Entry, error) {
		fills++
		return Entry{Data: []byte("rendered"), MIME: "text/html"}, nil
	}
	e, err := tc.GetOrFill("k", time.Minute, fill)
	if err != nil || string(e.Data) != "rendered" || fills != 1 {
		t.Fatalf("cold fill: %v, %q, fills=%d", err, e.Data, fills)
	}
	if !tc.Flush(time.Second) {
		t.Fatal("write-through did not drain")
	}
	if _, _, _, ok := tier.Get("k"); !ok {
		t.Fatal("fill result not written through to the tier")
	}

	// Simulate a restart: fresh L1 over the same tier. The fill must NOT
	// run again — the durable record satisfies the miss.
	tc2 := newTieredTest(t, tier)
	e2, err := tc2.GetOrFill("k", time.Minute, func() (Entry, error) {
		t.Error("fill ran despite durable record")
		return Entry{}, errors.New("unreachable")
	})
	if err != nil || string(e2.Data) != "rendered" || e2.MIME != "text/html" {
		t.Fatalf("warm fill-through: %v, %q, %q", err, e2.Data, e2.MIME)
	}
	// And it is now promoted: a plain L1 Get hits without touching the tier.
	if _, ok := tc2.Cache.Get("k"); !ok {
		t.Fatal("tier hit was not promoted into L1")
	}
}

func TestTieredGetPromotes(t *testing.T) {
	tier := newFakeTier()
	_ = tier.Put("k", []byte("v"), "m", time.Minute)
	tc := newTieredTest(t, tier)
	e, ok := tc.Get("k")
	if !ok || string(e.Data) != "v" {
		t.Fatalf("Get through tier = %q, %v", e.Data, ok)
	}
	if _, ok := tc.Cache.Get("k"); !ok {
		t.Fatal("tier hit not promoted")
	}
	if _, ok := tc.Get("absent"); ok {
		t.Fatal("absent key reported present")
	}
}

func TestTieredPutAndDeleteWriteThrough(t *testing.T) {
	tier := newFakeTier()
	tc := newTieredTest(t, tier)
	tc.Put("k", Entry{Data: []byte("v"), MIME: "m"}, time.Minute)
	if !tc.Flush(time.Second) {
		t.Fatal("queue did not drain")
	}
	if _, _, _, ok := tier.Get("k"); !ok {
		t.Fatal("Put not written through")
	}
	tc.Delete("k")
	if !tc.Flush(time.Second) {
		t.Fatal("queue did not drain")
	}
	if _, _, _, ok := tier.Get("k"); ok {
		t.Fatal("Delete not propagated to tier")
	}
	// ttl<=0 means uncacheable: no write-through either.
	tc.Put("nope", Entry{Data: []byte("v")}, 0)
	tc.Flush(time.Second)
	if _, _, _, ok := tier.Get("nope"); ok {
		t.Fatal("uncacheable entry written through")
	}
}

// TestTieredDeleteAfterPutWins: a Delete queued behind a stalled Put of
// the same key reaches the tier after it, so the key ends up gone.
func TestTieredDeleteAfterPutWins(t *testing.T) {
	tier := newFakeTier()
	tier.block = make(chan struct{})
	tc := newTieredTest(t, tier)
	tc.Put("k", Entry{Data: []byte("v")}, time.Minute)
	tc.Delete("k")
	time.Sleep(20 * time.Millisecond) // room for a second writer to run the Delete first
	close(tier.block)
	if !tc.Flush(time.Second) {
		t.Fatal("queue did not drain")
	}
	if _, _, _, ok := tier.Get("k"); ok {
		t.Fatal("the tier holds k after Put then Delete")
	}
}

func TestTieredNeverBlocksOnStalledWriter(t *testing.T) {
	tier := newFakeTier()
	tier.block = make(chan struct{})
	defer close(tier.block)
	tc := newTieredTest(t, tier)

	// One write stalls in the tier and tieredQueueLen wait behind it; the
	// rest overflow the queue.
	fills := tieredQueueLen + 50
	start := time.Now()
	for i := 0; i < fills; i++ {
		key := fmt.Sprintf("k%d", i)
		_, err := tc.GetOrFill(key, time.Minute, func() (Entry, error) {
			return Entry{Data: []byte("v"), MIME: "m"}, nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("serving path blocked on stalled writer: %v for %d fills", elapsed, fills)
	}
	if tc.WriteDrops() == 0 {
		t.Fatal("no write drops counted despite a stalled writer and full queue")
	}
}

func TestTieredWriteDropMetric(t *testing.T) {
	tier := newFakeTier()
	tier.block = make(chan struct{})
	defer close(tier.block)
	tc := newTieredTest(t, tier)
	reg := obs.NewRegistry()
	tc.SetObs(reg)
	for i := 0; i < tieredQueueLen+10; i++ {
		tc.Put(fmt.Sprintf("k%d", i), Entry{Data: []byte("v")}, time.Minute)
	}
	snap := reg.Snapshot()
	c, ok := snap.Counter("msite_store_write_drops_total")
	if !ok || c.Value == 0 {
		t.Fatalf("msite_store_write_drops_total = %v (ok=%v); want > 0", c, ok)
	}
	if c.Value != tc.WriteDrops() {
		t.Fatalf("metric %d != accessor %d", c.Value, tc.WriteDrops())
	}
}

func TestTieredFillErrorNotWrittenThrough(t *testing.T) {
	tier := newFakeTier()
	tc := newTieredTest(t, tier)
	wantErr := errors.New("render failed")
	if _, err := tc.GetOrFill("k", time.Minute, func() (Entry, error) {
		return Entry{}, wantErr
	}); !errors.Is(err, wantErr) {
		t.Fatalf("err = %v", err)
	}
	tc.Flush(time.Second)
	if _, _, _, ok := tier.Get("k"); ok {
		t.Fatal("failed fill written through")
	}
}

func TestTieredRehydrate(t *testing.T) {
	tier := newFakeTier()
	for i := 0; i < 5; i++ {
		_ = tier.Put(fmt.Sprintf("k%d", i), []byte("warm"), "m", time.Minute)
	}
	_ = tier.Put("expired", []byte("old"), "m", -1) // zero expiry → promoteTTL path
	tc := newTieredTest(t, tier)
	n := tc.Rehydrate(0)
	if n != 6 {
		t.Fatalf("Rehydrate loaded %d records; want 6", n)
	}
	for i := 0; i < 5; i++ {
		if _, ok := tc.Cache.Get(fmt.Sprintf("k%d", i)); !ok {
			t.Fatalf("k%d not rehydrated into L1", i)
		}
	}
	// Byte cap honored.
	tc2 := newTieredTest(t, newFakeTierFrom(tier))
	if n := tc2.Rehydrate(5); n < 1 || n >= 6 {
		t.Fatalf("byte-capped Rehydrate loaded %d records", n)
	}
}

// newFakeTierFrom copies records so a second Tiered gets its own tier.
func newFakeTierFrom(src *fakeTier) *fakeTier {
	src.mu.Lock()
	defer src.mu.Unlock()
	f := newFakeTier()
	for k, v := range src.m {
		f.m[k] = v
	}
	return f
}

func TestTieredCloseIdempotentAndDrains(t *testing.T) {
	tier := newFakeTier()
	tc := NewTiered(New(), tier)
	for i := 0; i < 20; i++ {
		tc.Put(fmt.Sprintf("k%d", i), Entry{Data: []byte("v")}, time.Minute)
	}
	tc.Close()
	tc.Close() // must not panic or double-close the queue
	tier.mu.Lock()
	puts := tier.puts
	tier.mu.Unlock()
	if puts != 20 {
		t.Fatalf("Close drained %d of 20 queued writes", puts)
	}
	// Post-close mutations are dropped, not panics.
	tc.Put("late", Entry{Data: []byte("v")}, time.Minute)
	tc.Delete("late")
}

// TestCacheCloseIdempotent is the satellite regression test: a second
// Close on the plain cache (now reachable via Framework and Tiered
// teardown paths) must be a no-op, not a double close of sweepStop.
func TestCacheCloseIdempotent(t *testing.T) {
	c := NewWithOptions(Options{SweepInterval: time.Millisecond})
	c.Put("k", Entry{Data: []byte("v")}, time.Minute)
	c.Close()
	c.Close()
	// Still usable (just unswept) afterwards, per the contract.
	if _, ok := c.Get("k"); !ok {
		t.Fatal("cache unusable after double Close")
	}
}

func TestTieredConcurrent(t *testing.T) {
	tier := newFakeTier()
	tc := newTieredTest(t, tier)
	var fills atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				key := fmt.Sprintf("k%d", i%10)
				switch i % 4 {
				case 0:
					_, _ = tc.GetOrFill(key, time.Minute, func() (Entry, error) {
						fills.Add(1)
						return Entry{Data: []byte("v"), MIME: "m"}, nil
					})
				case 1:
					tc.Get(key)
				case 2:
					tc.Put(key, Entry{Data: []byte("v2")}, time.Minute)
				default:
					tc.Delete(key)
				}
			}
		}(g)
	}
	wg.Wait()
}
