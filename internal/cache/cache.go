// Package cache implements the server-side render cache of m.Site (§3.3
// "Object caching"): TTL-bounded entries shared across sessions so that
// one pre-render is amortized over thousands of clients, with
// single-flight filling so concurrent requests for a cold key trigger
// exactly one render.
//
// One mutex guards one entry map and one LRU list: every hot key is a
// single key (a site's snapshot, a bundle), so splitting the key space
// across locks would spread no contention. An optional byte budget
// (MaxBytes) bounds the whole cache and evicts least-recently-used
// entries, and an optional background sweeper collects expired entries
// between requests; Close stops it.
package cache

import (
	"sync"
	"sync/atomic"
	"time"

	"msite/internal/obs"
)

// slotOverhead approximates the per-entry bookkeeping bytes charged
// against MaxBytes on top of the payload itself.
const slotOverhead = 128

// Entry is one cached artifact.
type Entry struct {
	Data []byte
	MIME string
}

func (e Entry) size() int64 {
	return int64(len(e.Data)) + int64(len(e.MIME)) + slotOverhead
}

// Options configures a cache beyond the defaults.
type Options struct {
	// Clock is the time source (tests inject a fake one). Nil uses
	// time.Now.
	Clock func() time.Time
	// MaxBytes bounds the resident payload bytes (the -cache-max-bytes
	// knob). When the budget is exceeded the least-recently-used
	// entries are evicted. 0 means unbounded (TTL-only), matching the
	// pre-LRU behaviour.
	MaxBytes int64
	// SweepInterval, when positive, starts a background goroutine that
	// sweeps expired entries on that period. Stop it with Close.
	SweepInterval time.Duration
}

// Cache is a TTL+LRU key-value cache, safe for concurrent use.
// The zero value is not usable; call New, NewWithClock, or
// NewWithOptions.
type Cache struct {
	clock    func() time.Time
	maxBytes int64

	// Counters are atomic so Stats() snapshots (and metric scrapes)
	// never contend with the serving hot path.
	hits      atomic.Uint64
	misses    atomic.Uint64
	fills     atomic.Uint64
	evictions atomic.Uint64
	bytes     atomic.Int64

	// obsHook is set once by SetObs before serving begins.
	obsHook atomic.Pointer[cacheObs]

	mu      sync.Mutex
	entries map[string]*slot
	// lruHead/lruTail form the intrusive recency list of resident
	// (filled, unexpired-or-not-yet-swept) slots; head is most recent.
	lruHead *slot
	lruTail *slot

	sweepStop chan struct{}
	sweepDone chan struct{}
	closeOnce sync.Once
}

// slot is one cache slot: either resident (entry valid, on the LRU
// list) or pending (a single-flight fill in progress; waiters block on
// the channel). After the pending channel closes, entry/fillErr are
// immutable and readable without the cache lock.
type slot struct {
	key     string
	entry   Entry
	expires time.Time
	size    int64

	pending chan struct{}
	fillErr error

	prev, next *slot // LRU links, only while resident
}

// cacheObs bundles the registry metrics the cache reports into.
type cacheObs struct {
	hits        *obs.Counter
	misses      *obs.Counter
	fills       *obs.Counter
	evictLRU    *obs.Counter
	evictExpire *obs.Counter
	fillSeconds *obs.Histogram
}

// New returns an empty unbounded cache using the real clock.
func New() *Cache {
	return NewWithOptions(Options{})
}

// NewWithClock returns an unbounded cache with an injectable clock, for
// tests and deterministic simulation.
func NewWithClock(clock func() time.Time) *Cache {
	return NewWithOptions(Options{Clock: clock})
}

// NewWithOptions returns a cache configured by o. When o.SweepInterval
// is positive the caller owns the sweeper and must Close the cache.
func NewWithOptions(o Options) *Cache {
	clock := o.Clock
	if clock == nil {
		clock = time.Now
	}
	c := &Cache{clock: clock, maxBytes: o.MaxBytes, entries: make(map[string]*slot)}
	if o.SweepInterval > 0 {
		c.sweepStop = make(chan struct{})
		c.sweepDone = make(chan struct{})
		go c.sweepLoop(o.SweepInterval)
	}
	return c
}

// Close stops the background sweeper, if one was started. Idempotent;
// the cache remains usable afterwards (just unswept).
func (c *Cache) Close() {
	c.closeOnce.Do(func() {
		if c.sweepStop != nil {
			close(c.sweepStop)
			<-c.sweepDone
		}
	})
}

func (c *Cache) sweepLoop(every time.Duration) {
	defer close(c.sweepDone)
	ticker := time.NewTicker(every)
	defer ticker.Stop()
	for {
		select {
		case <-c.sweepStop:
			return
		case <-ticker.C:
			c.Sweep()
		}
	}
}

// SetObs registers the cache's counters, gauges, and fill-latency
// histogram on reg (msite_cache_hits_total, msite_cache_misses_total,
// msite_cache_fills_total, msite_cache_evictions_total{reason},
// msite_cache_entries, msite_cache_bytes, msite_cache_fill_seconds) and
// starts reporting into them. Safe to call while serving; typically
// wired once by core.New.
func (c *Cache) SetObs(reg *obs.Registry) {
	c.obsHook.Store(&cacheObs{
		hits:        reg.Counter("msite_cache_hits_total"),
		misses:      reg.Counter("msite_cache_misses_total"),
		fills:       reg.Counter("msite_cache_fills_total"),
		evictLRU:    reg.Counter("msite_cache_evictions_total", "reason", "lru"),
		evictExpire: reg.Counter("msite_cache_evictions_total", "reason", "expired"),
		fillSeconds: reg.Histogram("msite_cache_fill_seconds"),
	})
	reg.GaugeFunc("msite_cache_entries", func() float64 { return float64(c.Len()) })
	reg.GaugeFunc("msite_cache_bytes", func() float64 { return float64(c.bytes.Load()) })
}

func (c *Cache) markHit() {
	c.hits.Add(1)
	if o := c.obsHook.Load(); o != nil {
		o.hits.Inc()
	}
}

func (c *Cache) markMiss() {
	c.misses.Add(1)
	if o := c.obsHook.Load(); o != nil {
		o.misses.Inc()
	}
}

func (c *Cache) markFill(d time.Duration) {
	c.fills.Add(1)
	if o := c.obsHook.Load(); o != nil {
		o.fills.Inc()
		o.fillSeconds.ObserveDuration(d)
	}
}

func (c *Cache) markEvict(expired bool) {
	c.evictions.Add(1)
	if o := c.obsHook.Load(); o != nil {
		if expired {
			o.evictExpire.Inc()
		} else {
			o.evictLRU.Inc()
		}
	}
}

// --- intrusive LRU list (caller holds c.mu) ---

func (c *Cache) lruPushFront(s *slot) {
	s.prev = nil
	s.next = c.lruHead
	if c.lruHead != nil {
		c.lruHead.prev = s
	}
	c.lruHead = s
	if c.lruTail == nil {
		c.lruTail = s
	}
}

func (c *Cache) lruRemove(s *slot) {
	if s.prev != nil {
		s.prev.next = s.next
	} else if c.lruHead == s {
		c.lruHead = s.next
	}
	if s.next != nil {
		s.next.prev = s.prev
	} else if c.lruTail == s {
		c.lruTail = s.prev
	}
	s.prev, s.next = nil, nil
}

func (c *Cache) lruTouch(s *slot) {
	if c.lruHead == s {
		return
	}
	c.lruRemove(s)
	c.lruPushFront(s)
}

// insertResident makes s the resident slot for its key, accounting
// bytes and evicting over-budget LRU entries. Caller holds c.mu.
func (c *Cache) insertResident(s *slot) {
	if old, ok := c.entries[s.key]; ok && old.pending == nil {
		c.removeResident(old)
	}
	c.entries[s.key] = s
	c.lruPushFront(s)
	c.bytes.Add(s.size)
	c.evictOverBudget()
}

// removeResident drops a resident slot from the map, the LRU list, and
// the byte accounting. Caller holds c.mu.
func (c *Cache) removeResident(s *slot) {
	delete(c.entries, s.key)
	c.lruRemove(s)
	c.bytes.Add(-s.size)
}

// evictOverBudget evicts least-recently-used resident entries until the
// cache is within MaxBytes. Caller holds c.mu.
func (c *Cache) evictOverBudget() {
	if c.maxBytes <= 0 {
		return
	}
	for c.bytes.Load() > c.maxBytes && c.lruTail != nil {
		c.removeResident(c.lruTail)
		c.markEvict(false)
	}
}

// Get returns the entry for key if present and unexpired.
func (c *Cache) Get(key string) (Entry, bool) {
	e, ok := c.Lookup(key)
	if !ok {
		c.markMiss()
	}
	return e, ok
}

// Lookup is Get for a caller that goes on to GetOrFill when it misses: a
// hit counts as Get's does, a miss counts nothing, since the GetOrFill
// counts it. It reads the in-memory entries only, never a durable tier,
// and it takes no fill function, so a hit costs the caller no closure.
func (c *Cache) Lookup(key string) (Entry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	s, ok := c.entries[key]
	if !ok || s.pending != nil || c.clock().After(s.expires) {
		return Entry{}, false
	}
	c.lruTouch(s)
	c.markHit()
	return s.entry, true
}

// Put stores an entry with the given time-to-live. A non-positive ttl
// stores nothing (the attribute system uses ttl<=0 to mean "uncacheable").
func (c *Cache) Put(key string, e Entry, ttl time.Duration) {
	if ttl <= 0 {
		return
	}
	s := &slot{key: key, entry: e, expires: c.clock().Add(ttl), size: e.size()}
	c.mu.Lock()
	defer c.mu.Unlock()
	if old, ok := c.entries[key]; ok && old.pending != nil {
		// A fill is in flight for this key; let it finish (its waiters
		// hold its slot pointer) and overwrite the map entry directly.
		delete(c.entries, key)
	}
	c.insertResident(s)
}

// GetOrFill returns the cached entry, or runs fill exactly once across
// concurrent callers and caches its result for ttl. A fill error is
// returned to every waiter and the slot is released eagerly — a failed
// fill leaves nothing behind. With ttl <= 0 the fill result is returned
// but not stored.
func (c *Cache) GetOrFill(key string, ttl time.Duration, fill func() (Entry, error)) (Entry, error) {
	c.mu.Lock()
	if s, ok := c.entries[key]; ok {
		if s.pending == nil && !c.clock().After(s.expires) {
			c.lruTouch(s)
			c.markHit()
			entry := s.entry
			c.mu.Unlock()
			return entry, nil
		}
		if s.pending != nil {
			// Another goroutine is filling: wait on its slot. The
			// filler publishes entry/fillErr before closing the
			// channel, so no re-lookup (and no re-fill loop) is needed.
			wait := s.pending
			c.mu.Unlock()
			<-wait
			if s.fillErr != nil {
				return Entry{}, s.fillErr
			}
			c.markHit()
			return s.entry, nil
		}
		// Expired resident entry: drop it and refill below.
		c.removeResident(s)
		c.markEvict(true)
	}
	// We are the filler.
	c.markMiss()
	pend := &slot{key: key, pending: make(chan struct{})}
	c.entries[key] = pend
	c.mu.Unlock()

	fillStart := time.Now()
	entry, err := fill()
	c.markFill(time.Since(fillStart))

	done := pend.pending
	c.mu.Lock()
	if err != nil {
		pend.fillErr = err
		// Eagerly release the errored slot: waiters carry the slot
		// pointer, so nothing dead lingers in the map (previously a
		// failed fill with no waiters leaked its slot until the next
		// touch of the key).
		if c.entries[key] == pend {
			delete(c.entries, key)
		}
		c.mu.Unlock()
		close(done)
		return Entry{}, err
	}
	pend.entry = entry
	pend.size = entry.size()
	if ttl > 0 && c.entries[key] == pend {
		// Transition pending -> resident (unless Delete/Purge removed
		// the key mid-fill, in which case the result is returned but
		// not cached).
		pend.expires = c.clock().Add(ttl)
		pend.pending = nil
		delete(c.entries, key)
		c.insertResident(pend)
	} else if c.entries[key] == pend {
		delete(c.entries, key)
	}
	c.mu.Unlock()
	close(done)
	return entry, nil
}

// Delete removes a key.
func (c *Cache) Delete(key string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	s, ok := c.entries[key]
	if !ok {
		return
	}
	if s.pending != nil {
		delete(c.entries, key)
		return
	}
	c.removeResident(s)
}

// Purge removes every entry.
func (c *Cache) Purge() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, s := range c.entries {
		if s.pending == nil {
			c.bytes.Add(-s.size)
		}
	}
	c.entries = make(map[string]*slot)
	c.lruHead, c.lruTail = nil, nil
}

// Sweep removes expired entries and returns how many were evicted. The
// background sweeper (Options.SweepInterval) calls this on its tick.
func (c *Cache) Sweep() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	now := c.clock()
	for _, s := range c.entries {
		if s.pending == nil && now.After(s.expires) {
			c.removeResident(s)
			c.markEvict(true)
			n++
		}
	}
	return n
}

// Len returns the number of stored entries (including expired ones not
// yet swept).
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Bytes returns the resident payload bytes currently accounted against
// MaxBytes.
func (c *Cache) Bytes() int64 { return c.bytes.Load() }

// Stats reports cache effectiveness counters.
type Stats struct {
	Hits      uint64
	Misses    uint64
	Fills     uint64
	Evictions uint64
	Bytes     int64
}

// Stats returns a snapshot of the counters without taking the cache
// lock (the counters are atomic).
func (c *Cache) Stats() Stats {
	return Stats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Fills:     c.fills.Load(),
		Evictions: c.evictions.Load(),
		Bytes:     c.bytes.Load(),
	}
}
