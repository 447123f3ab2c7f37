package cache

import (
	"sync"
	"sync/atomic"
	"time"

	"msite/internal/obs"
)

// Layer is the cache surface the serving stack threads around: the
// in-memory *Cache, or a *Tiered that backs it with a durable store.
// Proxy, AJAX dispatcher, and core accept a Layer so persistence is a
// wiring decision, not a code path.
type Layer interface {
	Get(key string) (Entry, bool)
	Lookup(key string) (Entry, bool)
	Put(key string, e Entry, ttl time.Duration)
	Delete(key string)
	Purge()
	GetOrFill(key string, ttl time.Duration, fill func() (Entry, error)) (Entry, error)
	Stats() Stats
	Len() int
	Bytes() int64
	SetObs(reg *obs.Registry)
	Close()
}

var (
	_ Layer = (*Cache)(nil)
	_ Layer = (*Tiered)(nil)
)

// SecondTier is the durable layer under a Tiered cache. internal/store
// implements it; tests substitute fakes (including stalled ones).
type SecondTier interface {
	// Get returns the blob for key if present and unexpired; a zero
	// expires means the record does not expire.
	Get(key string) (data []byte, mime string, expires time.Time, ok bool)
	Put(key string, data []byte, mime string, ttl time.Duration) error
	Delete(key string) error
}

// KeyLister is the optional iteration surface of a SecondTier; when
// present, Rehydrate can preload the L1 with the most recently used
// durable records.
type KeyLister interface {
	// Keys returns live keys, most recently accessed first.
	Keys() []string
}

// tieredQueueLen bounds the queued write-throughs: past it writes are
// dropped and counted in msite_store_write_drops_total, never blocked
// on, so the serving path never waits on the store.
const tieredQueueLen = 256

// promoteTTL is the L1 residency granted to a durable record that
// carries no expiry of its own.
const promoteTTL = 5 * time.Minute

// writeOp is one queued asynchronous store mutation.
type writeOp struct {
	del  bool
	key  string
	data []byte
	mime string
	ttl  time.Duration
}

// Tiered layers a durable SecondTier under an in-memory Cache. Reads
// miss through to the store (promoting hits into L1); fills, puts and
// deletes write through asynchronously via a bounded queue so the
// serving path never waits on disk. One writer drains the queue, so the
// tier sees a key's writes in the order they were made: a Delete queued
// behind a Put of the same key lands after it.
type Tiered struct {
	*Cache
	tier SecondTier

	queue   chan writeOp
	sendMu  sync.RWMutex // guards queue sends against Close
	closed  bool
	done    chan struct{} // closed when the writer exits
	pending atomic.Int64

	writeDrops atomic.Uint64
	obsDrops   atomic.Pointer[obs.Counter]

	closeOnce sync.Once
}

// NewTiered wraps l1 with the durable tier. The caller retains ownership
// of both: Close stops the writer and closes l1, but not the tier.
func NewTiered(l1 *Cache, tier SecondTier) *Tiered {
	t := &Tiered{
		Cache: l1,
		tier:  tier,
		queue: make(chan writeOp, tieredQueueLen),
		done:  make(chan struct{}),
	}
	go t.writer()
	return t
}

func (t *Tiered) writer() {
	defer close(t.done)
	for op := range t.queue {
		if op.del {
			_ = t.tier.Delete(op.key)
		} else {
			_ = t.tier.Put(op.key, op.data, op.mime, op.ttl)
		}
		t.pending.Add(-1)
	}
}

// enqueue hands op to the writer without ever blocking: a full
// queue (stalled or slow disk) drops the write and counts it.
func (t *Tiered) enqueue(op writeOp) {
	t.sendMu.RLock()
	defer t.sendMu.RUnlock()
	if t.closed {
		return
	}
	select {
	case t.queue <- op:
		t.pending.Add(1)
	default:
		t.writeDrops.Add(1)
		if c := t.obsDrops.Load(); c != nil {
			c.Inc()
		}
	}
}

// Get checks L1, then the durable tier; a tier hit is promoted into L1
// with its remaining lifetime.
func (t *Tiered) Get(key string) (Entry, bool) {
	if e, ok := t.Cache.Get(key); ok {
		return e, true
	}
	data, mime, expires, ok := t.tier.Get(key)
	if !ok {
		return Entry{}, false
	}
	e := Entry{Data: data, MIME: mime}
	t.Cache.Put(key, e, t.remainingTTL(expires))
	return e, true
}

// remainingTTL converts a tier record's expiry into an L1 ttl.
func (t *Tiered) remainingTTL(expires time.Time) time.Duration {
	if expires.IsZero() {
		return promoteTTL
	}
	return expires.Sub(t.clock())
}

// Put stores in L1 and writes through asynchronously. The tier keeps
// cacheable artifacts only, so the same ttl<=0 short-circuit applies.
func (t *Tiered) Put(key string, e Entry, ttl time.Duration) {
	t.Cache.Put(key, e, ttl)
	if ttl > 0 {
		t.enqueue(writeOp{key: key, data: e.Data, mime: e.MIME, ttl: ttl})
	}
}

// Delete removes the key from both tiers (the tier delete is async).
func (t *Tiered) Delete(key string) {
	t.Cache.Delete(key)
	t.enqueue(writeOp{del: true, key: key})
}

// GetOrFill is Cache.GetOrFill with the durable tier consulted before
// the fill runs: inside the single-flight slot a tier hit short-circuits
// the (expensive) fill, and a real fill's result is written through.
func (t *Tiered) GetOrFill(key string, ttl time.Duration, fill func() (Entry, error)) (Entry, error) {
	return t.Cache.GetOrFill(key, ttl, func() (Entry, error) {
		if data, mime, _, ok := t.tier.Get(key); ok {
			return Entry{Data: data, MIME: mime}, nil
		}
		e, err := fill()
		if err == nil && ttl > 0 {
			t.enqueue(writeOp{key: key, data: e.Data, mime: e.MIME, ttl: ttl})
		}
		return e, err
	})
}

// Rehydrate preloads L1 with the most recently used durable records —
// the warm-restart path. At most maxBytes of payload are loaded (0 uses
// the L1 byte budget; unbounded if that is 0 too). Returns how many
// records were loaded. Reads go through the tier, so they count as
// store hits.
func (t *Tiered) Rehydrate(maxBytes int64) int {
	kl, ok := t.tier.(KeyLister)
	if !ok {
		return 0
	}
	if maxBytes <= 0 {
		maxBytes = t.Cache.maxBytes
	}
	var loaded int64
	n := 0
	for _, key := range kl.Keys() {
		data, mime, expires, ok := t.tier.Get(key)
		if !ok {
			continue
		}
		ttl := t.remainingTTL(expires)
		if ttl <= 0 {
			continue
		}
		t.Cache.Put(key, Entry{Data: data, MIME: mime}, ttl)
		loaded += int64(len(data))
		n++
		if maxBytes > 0 && loaded >= maxBytes {
			break
		}
	}
	return n
}

// WriteDrops returns how many write-throughs were dropped on
// backpressure.
func (t *Tiered) WriteDrops() uint64 { return t.writeDrops.Load() }

// Flush waits until the write-through queue drains or the timeout
// elapses, returning whether it drained. Test and benchmark helper; the
// serving path never calls it.
func (t *Tiered) Flush(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for t.pending.Load() > 0 {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
	return true
}

// SetObs registers the L1 metrics plus the write-through drop counter
// and queue-depth gauge. The tier registers its own metrics.
func (t *Tiered) SetObs(reg *obs.Registry) {
	t.Cache.SetObs(reg)
	c := reg.Counter("msite_store_write_drops_total")
	c.Add(t.writeDrops.Load())
	t.obsDrops.Store(c)
	reg.GaugeFunc("msite_store_write_queue", func() float64 { return float64(t.pending.Load()) })
}

// Close drains queued write-throughs, stops the writer, and closes
// the L1 cache. Idempotent. The durable tier itself stays open — its
// owner closes it after the last write lands.
func (t *Tiered) Close() {
	t.closeOnce.Do(func() {
		t.sendMu.Lock()
		t.closed = true
		close(t.queue)
		t.sendMu.Unlock()
		<-t.done
		t.Cache.Close()
	})
}
