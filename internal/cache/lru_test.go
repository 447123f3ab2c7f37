package cache

import (
	"errors"
	"testing"
	"time"
)

func TestLRUEvictsOverByteBudget(t *testing.T) {
	entry := Entry{Data: make([]byte, 1000)}
	// The budget admits 3 entries of 1 000 bytes plus slotOverhead.
	c := NewWithOptions(Options{MaxBytes: 3500})
	keys := []string{"a", "b", "c", "d"}
	for _, k := range keys[:3] {
		c.Put(k, entry, time.Hour)
	}
	if _, ok := c.Get(keys[0]); !ok {
		t.Fatal("budget not exceeded yet; nothing should be evicted")
	}
	c.Put(keys[3], entry, time.Hour)
	// keys[0] was touched most recently via Get, so keys[1] is LRU.
	if _, ok := c.Get(keys[1]); ok {
		t.Error("least-recently-used entry should have been evicted")
	}
	if _, ok := c.Get(keys[0]); !ok {
		t.Error("recently touched entry should survive eviction")
	}
	if _, ok := c.Get(keys[3]); !ok {
		t.Error("newest entry should survive eviction")
	}
	if got := c.Stats().Evictions; got == 0 {
		t.Error("evictions counter should have advanced")
	}
}

func TestByteAccounting(t *testing.T) {
	c := NewWithOptions(Options{MaxBytes: 1 << 20})
	c.Put("a", Entry{Data: make([]byte, 100)}, time.Hour)
	c.Put("b", Entry{Data: make([]byte, 200), MIME: "image/png"}, time.Hour)
	want := int64(100+slotOverhead) + int64(200+len("image/png")+slotOverhead)
	if got := c.Bytes(); got != want {
		t.Fatalf("Bytes() = %d, want %d", got, want)
	}
	c.Delete("a")
	want -= int64(100 + slotOverhead)
	if got := c.Bytes(); got != want {
		t.Fatalf("after delete Bytes() = %d, want %d", got, want)
	}
	// Overwriting must not double-count.
	c.Put("b", Entry{Data: make([]byte, 50)}, time.Hour)
	want = int64(50 + slotOverhead)
	if got := c.Bytes(); got != want {
		t.Fatalf("after overwrite Bytes() = %d, want %d", got, want)
	}
	c.Purge()
	if got := c.Bytes(); got != 0 {
		t.Fatalf("after purge Bytes() = %d, want 0", got)
	}
}

// TestErroredFillLeavesNoSlot is the regression test for the
// errored-slot leak: a failed GetOrFill with no waiters must not leave
// a dead slot behind (it used to linger in the map, inflating Len and
// the msite_cache_entries gauge, until the key was touched again).
func TestErroredFillLeavesNoSlot(t *testing.T) {
	c := New()
	boom := errors.New("render failed")
	if _, err := c.GetOrFill("k", time.Hour, func() (Entry, error) {
		return Entry{}, boom
	}); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if got := c.Len(); got != 0 {
		t.Fatalf("Len() = %d after failed fill, want 0 (errored slot leaked)", got)
	}
	if got := c.Bytes(); got != 0 {
		t.Fatalf("Bytes() = %d after failed fill, want 0", got)
	}
}

func TestGetOrFillRespectsBudget(t *testing.T) {
	c := NewWithOptions(Options{MaxBytes: 2500})
	keys := []string{"a", "b", "c"}
	for _, k := range keys {
		if _, err := c.GetOrFill(k, time.Hour, func() (Entry, error) {
			return Entry{Data: make([]byte, 1000)}, nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	// Budget fits 2 entries; the first-filled key is LRU and must go.
	if _, ok := c.Get(keys[0]); ok {
		t.Error("oldest filled entry should have been evicted")
	}
	if _, ok := c.Get(keys[2]); !ok {
		t.Error("newest filled entry should be resident")
	}
}

func TestBackgroundSweeperAndClose(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1_000_000, 0)}
	c := NewWithOptions(Options{Clock: clk.Now, SweepInterval: 5 * time.Millisecond})
	defer c.Close()
	c.Put("short", Entry{Data: []byte("x")}, time.Minute)
	c.Put("long", Entry{Data: []byte("y")}, time.Hour)
	clk.Advance(10 * time.Minute)
	deadline := time.Now().Add(2 * time.Second)
	for c.Len() != 1 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if got := c.Len(); got != 1 {
		t.Fatalf("sweeper left Len() = %d, want 1", got)
	}
	if _, ok := c.Get("long"); !ok {
		t.Fatal("unexpired entry swept")
	}
	c.Close()
	c.Close() // idempotent
}

// TestLargeEntryStaysResident: MaxBytes bounds the whole cache, so an
// entry well under it is resident after Put. (The budget used to be
// split across 32 key shards, and any entry over MaxBytes/32 was
// evicted as soon as it was inserted.)
func TestLargeEntryStaysResident(t *testing.T) {
	c := NewWithOptions(Options{MaxBytes: 4 << 20})
	c.Put("bundle", Entry{Data: make([]byte, 200<<10)}, time.Hour)
	if _, ok := c.Get("bundle"); !ok {
		t.Fatalf("200 KB entry not resident under a 4 MB budget (evictions=%d)", c.Stats().Evictions)
	}
}
