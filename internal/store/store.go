// Package store is the durable tier under m.Site's render cache: a
// crash-safe, append-only blob store that lets adapted entry pages,
// subpage bundles, and snapshot renders survive proxy restarts (§3.3
// "cacheable" made durable, the same move DRIVESHAFT makes with its
// edge-resident visual-snapshot caches). A restarted proxy rehydrates
// the in-memory cache from here instead of re-rendering, so a deploy or
// crash never triggers the re-render stampede the admission tier would
// otherwise have to shed.
//
// Layout: records are appended to numbered segment files with per-record
// CRC32 framing; the in-memory index is rebuilt by scanning the segments
// on Open. A torn tail (partial final write after a crash) is truncated,
// never fatal; corruption is counted and skipped. Durability is a policy
// knob (always / interval / never fsync), dead records are reclaimed by
// background compaction, and an optional byte budget evicts the least
// recently accessed records.
package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"msite/internal/obs"
)

// Segment file framing.
const (
	// segMagic opens every segment file; a file without it is ignored
	// (and counted corrupt) rather than scanned.
	segMagic = "MSITESG1"
	// recHeaderLen is the per-record frame: CRC32 (IEEE) of the payload,
	// then the payload length.
	recHeaderLen = 8
	// maxPayloadLen is the sanity bound on a record's payload; a length
	// field past it is treated as corruption (a torn or scribbled tail),
	// not an allocation request.
	maxPayloadLen = 1 << 30

	opPut    = 1
	opDelete = 2
	// opTouch revises the expiry of a live record without rewriting its
	// payload — the record the revalidation path appends when the origin
	// answers 304 Not Modified and a bundle's TTL just gets extended.
	opTouch = 3
)

// DefaultSegmentMaxBytes is the roll-over size of one segment file.
const DefaultSegmentMaxBytes = 64 << 20

// DefaultFsyncInterval is the background sync period under FsyncInterval.
const DefaultFsyncInterval = 100 * time.Millisecond

// DefaultCompactFraction is the dead-byte fraction of a sealed segment
// that triggers background compaction.
const DefaultCompactFraction = 0.5

// FsyncPolicy selects the durability/latency trade of appends (the
// -store-fsync knob).
type FsyncPolicy int

const (
	// FsyncInterval (the default) syncs the active segment on a short
	// background period: bounded data loss, no per-write sync stall.
	FsyncInterval FsyncPolicy = iota
	// FsyncAlways syncs after every append: zero committed-data loss.
	FsyncAlways
	// FsyncNever leaves syncing to the OS page cache.
	FsyncNever
)

// ParseFsync maps the -store-fsync flag value onto a policy. The empty
// string selects the default (interval).
func ParseFsync(s string) (FsyncPolicy, error) {
	switch strings.ToLower(s) {
	case "", "interval":
		return FsyncInterval, nil
	case "always":
		return FsyncAlways, nil
	case "never":
		return FsyncNever, nil
	}
	return 0, fmt.Errorf("store: unknown fsync policy %q (want always|interval|never)", s)
}

// String returns the flag spelling of the policy.
func (p FsyncPolicy) String() string {
	switch p {
	case FsyncAlways:
		return "always"
	case FsyncNever:
		return "never"
	default:
		return "interval"
	}
}

// Options configures a Store.
type Options struct {
	// Dir is the directory segment files live in (required; created if
	// missing).
	Dir string
	// MaxBytes bounds the live payload bytes (the -store-max-bytes
	// knob); past it the least recently accessed records are evicted.
	// 0 means unbounded.
	MaxBytes int64
	// SegmentMaxBytes rolls the active segment past this size
	// (default DefaultSegmentMaxBytes).
	SegmentMaxBytes int64
	// Fsync is the durability policy (default FsyncInterval).
	Fsync FsyncPolicy
	// FsyncInterval is the background sync period under FsyncInterval
	// (default DefaultFsyncInterval).
	FsyncInterval time.Duration
	// CompactFraction is the dead-byte fraction of a sealed segment that
	// triggers compaction (default DefaultCompactFraction; negative
	// disables background compaction).
	CompactFraction float64
	// Clock is the time source (tests inject a fake one); nil uses
	// time.Now.
	Clock func() time.Time
}

// segment is one on-disk log file.
type segment struct {
	id   uint64
	path string
	f    *os.File
	// size is the current file size (header + records).
	size int64
	// dead is the bytes of records in this segment that the index no
	// longer references (overwritten, deleted, evicted, or expired).
	dead int64
}

// rec locates one live record.
type rec struct {
	seg *segment
	// off is the file offset of the record frame (CRC header).
	off int64
	// frameLen is the full record length on disk (header + payload).
	frameLen int64
	// expires is the expiry in unix nanoseconds; 0 means no expiry.
	expires int64
	// access is the store's logical access clock at the last touch;
	// eviction removes the lowest values first.
	access uint64
}

// Stats is a snapshot of the store's counters.
type Stats struct {
	Hits             uint64
	Misses           uint64
	Puts             uint64
	Deletes          uint64
	Evictions        uint64
	CompactedRecords uint64
	// RecoveredRecords / CorruptRecords describe the Open scan: records
	// rebuilt into the index vs. torn or corrupt frames dropped.
	RecoveredRecords uint64
	CorruptRecords   uint64
	// ScanDuration is how long the Open recovery scan took.
	ScanDuration time.Duration
	// LiveBytes / Segments / Records describe current residency.
	LiveBytes int64
	Segments  int
	Records   int
}

// storeObs bundles the registry metrics the store reports into.
type storeObs struct {
	hits      *obs.Counter
	misses    *obs.Counter
	evictions *obs.Counter
	corrupt   *obs.Counter
}

// Store is a crash-safe durable blob store, safe for concurrent use.
type Store struct {
	dir             string
	maxBytes        int64
	segMaxBytes     int64
	fsync           FsyncPolicy
	compactFraction float64
	clock           func() time.Time

	// Counters are atomic so Stats() and metric scrapes never contend
	// with the read/write paths.
	hits      atomic.Uint64
	misses    atomic.Uint64
	puts      atomic.Uint64
	deletes   atomic.Uint64
	evictions atomic.Uint64
	compacted atomic.Uint64
	recovered atomic.Uint64
	corrupt   atomic.Uint64
	liveBytes atomic.Int64
	scanDur   time.Duration

	accessClock atomic.Uint64
	obsHook     atomic.Pointer[storeObs]
	compacting  atomic.Bool

	mu     sync.Mutex
	index  map[string]*rec
	segs   []*segment // ordered by id; the last is the active one
	closed bool

	syncStop chan struct{}
	syncDone chan struct{}
}

// Open opens (or creates) the store in o.Dir, rebuilding the index by
// scanning every segment. A torn tail on the newest segment is
// truncated; corrupt frames elsewhere are counted and skipped. Open
// never fails on corruption — only on I/O errors.
func Open(o Options) (*Store, error) {
	if o.Dir == "" {
		return nil, errors.New("store: empty directory")
	}
	if err := os.MkdirAll(o.Dir, 0o700); err != nil {
		return nil, fmt.Errorf("store: creating dir: %w", err)
	}
	clock := o.Clock
	if clock == nil {
		clock = time.Now
	}
	segMax := o.SegmentMaxBytes
	if segMax <= 0 {
		segMax = DefaultSegmentMaxBytes
	}
	frac := o.CompactFraction
	if frac == 0 {
		frac = DefaultCompactFraction
	}
	s := &Store{
		dir:             o.Dir,
		maxBytes:        o.MaxBytes,
		segMaxBytes:     segMax,
		fsync:           o.Fsync,
		compactFraction: frac,
		clock:           clock,
		index:           make(map[string]*rec),
	}
	start := time.Now()
	if err := s.scanAll(); err != nil {
		s.closeFiles()
		return nil, err
	}
	s.scanDur = time.Since(start)
	if len(s.segs) == 0 {
		if _, err := s.addSegment(); err != nil {
			return nil, err
		}
	}
	s.mu.Lock()
	s.pruneExpiredLocked()
	s.evictOverBudgetLocked()
	s.mu.Unlock()
	if s.fsync == FsyncInterval {
		every := o.FsyncInterval
		if every <= 0 {
			every = DefaultFsyncInterval
		}
		s.syncStop = make(chan struct{})
		s.syncDone = make(chan struct{})
		go s.syncLoop(every)
	}
	return s, nil
}

// SetObs registers the store's metrics on reg (msite_store_hits_total,
// msite_store_misses_total, msite_store_evictions_total,
// msite_store_write_drops_total is owned by the tiered cache,
// msite_store_recovered_records_total, msite_store_corrupt_records_total,
// msite_store_bytes, msite_store_segments, msite_store_records) and
// reports the recovery scan's outcome into them.
func (s *Store) SetObs(reg *obs.Registry) {
	h := &storeObs{
		hits:      reg.Counter("msite_store_hits_total"),
		misses:    reg.Counter("msite_store_misses_total"),
		evictions: reg.Counter("msite_store_evictions_total"),
		corrupt:   reg.Counter("msite_store_corrupt_records_total"),
	}
	s.obsHook.Store(h)
	// The recovery scan ran before any hook existed; publish its result.
	reg.Counter("msite_store_recovered_records_total").Add(s.recovered.Load())
	h.corrupt.Add(s.corrupt.Load())
	reg.GaugeFunc("msite_store_bytes", func() float64 { return float64(s.liveBytes.Load()) })
	reg.GaugeFunc("msite_store_segments", func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return float64(len(s.segs))
	})
	reg.GaugeFunc("msite_store_records", func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return float64(len(s.index))
	})
}

func (s *Store) markHit() {
	s.hits.Add(1)
	if o := s.obsHook.Load(); o != nil {
		o.hits.Inc()
	}
}

func (s *Store) markMiss() {
	s.misses.Add(1)
	if o := s.obsHook.Load(); o != nil {
		o.misses.Inc()
	}
}

func (s *Store) markEvict() {
	s.evictions.Add(1)
	if o := s.obsHook.Load(); o != nil {
		o.evictions.Inc()
	}
}

func (s *Store) markCorrupt() {
	s.corrupt.Add(1)
	if o := s.obsHook.Load(); o != nil {
		o.corrupt.Inc()
	}
}

// --- record encoding ---

// encodeRecord frames one record: CRC32(payload) | len(payload) |
// payload, where payload = op | expiresNanos | keyLen | key | mimeLen |
// mime | dataLen | data.
func encodeRecord(op byte, key, mime string, data []byte, expires int64) []byte {
	plen := 1 + 8 + 4 + len(key) + 4 + len(mime) + 4 + len(data)
	buf := make([]byte, recHeaderLen+plen)
	p := buf[recHeaderLen:]
	p[0] = op
	binary.BigEndian.PutUint64(p[1:9], uint64(expires))
	off := 9
	binary.BigEndian.PutUint32(p[off:], uint32(len(key)))
	off += 4
	copy(p[off:], key)
	off += len(key)
	binary.BigEndian.PutUint32(p[off:], uint32(len(mime)))
	off += 4
	copy(p[off:], mime)
	off += len(mime)
	binary.BigEndian.PutUint32(p[off:], uint32(len(data)))
	off += 4
	copy(p[off:], data)
	binary.BigEndian.PutUint32(buf[0:4], crc32.ChecksumIEEE(p))
	binary.BigEndian.PutUint32(buf[4:8], uint32(plen))
	return buf
}

// decodePayload parses a verified payload.
func decodePayload(p []byte) (op byte, key, mime string, data []byte, expires int64, err error) {
	if len(p) < 1+8+4 {
		return 0, "", "", nil, 0, errors.New("store: short payload")
	}
	op = p[0]
	expires = int64(binary.BigEndian.Uint64(p[1:9]))
	off := 9
	read := func() ([]byte, bool) {
		if off+4 > len(p) {
			return nil, false
		}
		n := int(binary.BigEndian.Uint32(p[off : off+4]))
		off += 4
		if n < 0 || off+n > len(p) {
			return nil, false
		}
		b := p[off : off+n]
		off += n
		return b, true
	}
	k, ok := read()
	if !ok {
		return 0, "", "", nil, 0, errors.New("store: bad key length")
	}
	m, ok := read()
	if !ok {
		return 0, "", "", nil, 0, errors.New("store: bad mime length")
	}
	d, ok := read()
	if !ok {
		return 0, "", "", nil, 0, errors.New("store: bad data length")
	}
	return op, string(k), string(m), d, expires, nil
}

// --- open-time recovery scan ---

// scanAll rebuilds the index from every segment file in id order.
func (s *Store) scanAll() error {
	names, err := filepath.Glob(filepath.Join(s.dir, "seg-*.log"))
	if err != nil {
		return fmt.Errorf("store: listing segments: %w", err)
	}
	sort.Strings(names)
	for i, path := range names {
		last := i == len(names)-1
		if err := s.scanSegment(path, last); err != nil {
			return err
		}
	}
	return nil
}

// scanSegment replays one segment into the index. On the newest segment
// a bad frame is a torn tail: the file is truncated at the failed
// record's start so the next append lands on a clean boundary. On older
// segments the rest of the file is unreachable and counted dead.
func (s *Store) scanSegment(path string, last bool) error {
	var id uint64
	if _, err := fmt.Sscanf(filepath.Base(path), "seg-%016x.log", &id); err != nil {
		// Not one of ours; leave it alone.
		return nil
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0o600)
	if err != nil {
		return fmt.Errorf("store: opening segment: %w", err)
	}
	seg := &segment{id: id, path: path, f: f}
	header := make([]byte, len(segMagic))
	if _, err := io.ReadFull(f, header); err != nil || string(header) != segMagic {
		// Unreadable header: treat the whole file as one corrupt tail.
		s.markCorrupt()
		if last {
			if err := s.resetSegment(seg); err != nil {
				return err
			}
			s.segs = append(s.segs, seg)
			return nil
		}
		seg.size = 0
		_ = f.Close()
		return nil
	}
	off := int64(len(segMagic))
	head := make([]byte, recHeaderLen)
	for {
		n, err := f.ReadAt(head, off)
		if err == io.EOF && n == 0 {
			break // clean end
		}
		if err != nil && err != io.ErrUnexpectedEOF && !errors.Is(err, io.EOF) {
			return fmt.Errorf("store: scanning %s: %w", path, err)
		}
		if n < recHeaderLen {
			s.tornTail(seg, off, last)
			break
		}
		wantCRC := binary.BigEndian.Uint32(head[0:4])
		plen := int64(binary.BigEndian.Uint32(head[4:8]))
		if plen <= 0 || plen > maxPayloadLen {
			s.tornTail(seg, off, last)
			break
		}
		payload := make([]byte, plen)
		if _, err := f.ReadAt(payload, off+recHeaderLen); err != nil {
			s.tornTail(seg, off, last)
			break
		}
		if crc32.ChecksumIEEE(payload) != wantCRC {
			s.tornTail(seg, off, last)
			break
		}
		op, key, _, _, expires, perr := decodePayload(payload)
		frame := recHeaderLen + plen
		if perr != nil {
			// Framed and checksummed but structurally invalid: count it
			// and keep scanning — the frame boundary is trustworthy.
			s.markCorrupt()
			seg.dead += frame
		} else {
			s.applyScanned(seg, op, key, off, frame, expires)
		}
		off += frame
		seg.size = off
	}
	if seg.size < int64(len(segMagic)) {
		seg.size = int64(len(segMagic))
	}
	s.segs = append(s.segs, seg)
	return nil
}

// tornTail handles a bad frame at off: on the newest segment the file
// is truncated there (the crash-recovery path); on sealed segments the
// remainder is counted dead.
func (s *Store) tornTail(seg *segment, off int64, last bool) {
	s.markCorrupt()
	if last {
		_ = seg.f.Truncate(off)
		seg.size = off
		return
	}
	if fi, err := seg.f.Stat(); err == nil {
		seg.dead += fi.Size() - off
	}
	seg.size = off
}

// applyScanned replays one valid record into the index.
func (s *Store) applyScanned(seg *segment, op byte, key string, off, frame int64, expires int64) {
	if op == opTouch {
		// A touch only revises the live record's expiry; the touch frame
		// itself is dead weight. A touch whose key has no live record
		// (deleted later in the log, or dropped by compaction races) is a
		// no-op.
		seg.dead += frame
		if r, ok := s.index[key]; ok {
			if expires != 0 && expires <= s.clock().UnixNano() {
				r.seg.dead += r.frameLen
				s.liveBytes.Add(-r.frameLen)
				delete(s.index, key)
			} else {
				r.expires = expires
			}
		}
		return
	}
	if old, ok := s.index[key]; ok {
		old.seg.dead += old.frameLen
		s.liveBytes.Add(-old.frameLen)
		delete(s.index, key)
	}
	switch op {
	case opPut:
		// Expired puts are still indexed here: a later touch record may
		// have extended their expiry, and the replay must see the put to
		// apply it. pruneExpiredLocked sweeps the leftovers once the whole
		// log has been replayed.
		s.index[key] = &rec{
			seg:      seg,
			off:      off,
			frameLen: frame,
			expires:  expires,
			access:   s.accessClock.Add(1),
		}
		s.liveBytes.Add(frame)
		s.recovered.Add(1)
	case opDelete:
		seg.dead += frame
	default:
		s.markCorrupt()
		seg.dead += frame
	}
}

// pruneExpiredLocked drops index entries whose expiry — after every
// touch in the log has been replayed — has already passed. Caller holds
// s.mu.
func (s *Store) pruneExpiredLocked() {
	now := s.clock().UnixNano()
	for key, r := range s.index {
		if r.expires != 0 && r.expires <= now {
			s.dropLocked(key, r)
		}
	}
}

// resetSegment rewrites a segment file to an empty (header-only) state.
func (s *Store) resetSegment(seg *segment) error {
	if err := seg.f.Truncate(0); err != nil {
		return fmt.Errorf("store: resetting segment: %w", err)
	}
	if _, err := seg.f.WriteAt([]byte(segMagic), 0); err != nil {
		return fmt.Errorf("store: resetting segment: %w", err)
	}
	seg.size = int64(len(segMagic))
	seg.dead = 0
	return nil
}

// addSegment creates and activates a fresh segment file. Caller must
// not hold s.mu (Open) or must hold it (roll); both are safe because
// the file is not shared until appended to s.segs.
func (s *Store) addSegment() (*segment, error) {
	var id uint64
	if n := len(s.segs); n > 0 {
		id = s.segs[n-1].id + 1
	}
	path := filepath.Join(s.dir, fmt.Sprintf("seg-%016x.log", id))
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o600)
	if err != nil {
		return nil, fmt.Errorf("store: creating segment: %w", err)
	}
	if _, err := f.WriteAt([]byte(segMagic), 0); err != nil {
		_ = f.Close()
		return nil, fmt.Errorf("store: writing segment header: %w", err)
	}
	seg := &segment{id: id, path: path, f: f, size: int64(len(segMagic))}
	s.segs = append(s.segs, seg)
	return seg, nil
}

// --- serving paths ---

// Get returns the record for key if present and unexpired. The read is
// CRC-verified; a record that fails verification (latent disk
// corruption) is dropped, counted, and reported as a miss.
func (s *Store) Get(key string) (data []byte, mime string, expires time.Time, ok bool) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.markMiss()
		return nil, "", time.Time{}, false
	}
	r, found := s.index[key]
	if found && r.expires != 0 && r.expires <= s.clock().UnixNano() {
		s.dropLocked(key, r)
		found = false
	}
	if !found {
		s.mu.Unlock()
		s.markMiss()
		return nil, "", time.Time{}, false
	}
	r.access = s.accessClock.Add(1)
	f, off, flen, exp := r.seg.f, r.off, r.frameLen, r.expires
	s.mu.Unlock()

	buf := make([]byte, flen)
	if _, err := f.ReadAt(buf, off); err != nil {
		s.corruptRecord(key, off)
		return nil, "", time.Time{}, false
	}
	wantCRC := binary.BigEndian.Uint32(buf[0:4])
	payload := buf[recHeaderLen:]
	if crc32.ChecksumIEEE(payload) != wantCRC {
		s.corruptRecord(key, off)
		return nil, "", time.Time{}, false
	}
	_, _, m, d, _, err := decodePayload(payload)
	if err != nil {
		s.corruptRecord(key, off)
		return nil, "", time.Time{}, false
	}
	s.markHit()
	var expT time.Time
	if exp != 0 {
		expT = time.Unix(0, exp)
	}
	return d, m, expT, true
}

// corruptRecord drops a record that failed read-time verification.
func (s *Store) corruptRecord(key string, off int64) {
	s.markCorrupt()
	s.markMiss()
	s.mu.Lock()
	if r, ok := s.index[key]; ok && r.off == off {
		s.dropLocked(key, r)
	}
	s.mu.Unlock()
}

// dropLocked removes a record from the index (expiry, corruption, or
// eviction); its bytes become dead for compaction. Caller holds s.mu.
func (s *Store) dropLocked(key string, r *rec) {
	r.seg.dead += r.frameLen
	s.liveBytes.Add(-r.frameLen)
	delete(s.index, key)
}

// Put appends a record. A non-positive ttl stores the record without
// expiry.
func (s *Store) Put(key string, data []byte, mime string, ttl time.Duration) error {
	var expires int64
	if ttl > 0 {
		expires = s.clock().Add(ttl).UnixNano()
	}
	frame := encodeRecord(opPut, key, mime, data, expires)
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return errors.New("store: closed")
	}
	off, seg, err := s.appendLocked(frame)
	if err != nil {
		s.mu.Unlock()
		return err
	}
	if old, ok := s.index[key]; ok {
		old.seg.dead += old.frameLen
		s.liveBytes.Add(-old.frameLen)
	}
	s.index[key] = &rec{
		seg:      seg,
		off:      off,
		frameLen: int64(len(frame)),
		expires:  expires,
		access:   s.accessClock.Add(1),
	}
	s.liveBytes.Add(int64(len(frame)))
	s.puts.Add(1)
	s.evictOverBudgetLocked()
	needCompact := s.needsCompactionLocked()
	s.mu.Unlock()
	if needCompact {
		s.compactAsync()
	}
	return nil
}

// Touch extends (or shortens) the expiry of a live record without
// rewriting its payload: a small touch frame is appended to the log and
// the index updated in place, so revalidating a multi-hundred-KB bundle
// costs a few dozen bytes of disk instead of a full rewrite. Returns
// false when the key has no live, unexpired record. A non-positive ttl
// clears the expiry.
func (s *Store) Touch(key string, ttl time.Duration) bool {
	var expires int64
	if ttl > 0 {
		expires = s.clock().Add(ttl).UnixNano()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	r, ok := s.index[key]
	if ok && r.expires != 0 && r.expires <= s.clock().UnixNano() {
		s.dropLocked(key, r)
		ok = false
	}
	if !ok {
		return false
	}
	frame := encodeRecord(opTouch, key, "", nil, expires)
	_, seg, err := s.appendLocked(frame)
	if err != nil {
		return false
	}
	// The touch frame is immediately dead: it never carries the payload,
	// only the expiry revision the index (and the recovery scan) applies.
	seg.dead += int64(len(frame))
	r.expires = expires
	r.access = s.accessClock.Add(1)
	return true
}

// Delete appends a tombstone and removes the key from the index.
func (s *Store) Delete(key string) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return errors.New("store: closed")
	}
	r, ok := s.index[key]
	if !ok {
		s.mu.Unlock()
		return nil
	}
	frame := encodeRecord(opDelete, key, "", nil, 0)
	_, seg, err := s.appendLocked(frame)
	if err != nil {
		s.mu.Unlock()
		return err
	}
	seg.dead += int64(len(frame)) // the tombstone itself is dead weight
	s.dropLocked(key, r)
	s.deletes.Add(1)
	s.mu.Unlock()
	return nil
}

// appendLocked writes one frame to the active segment, rolling to a new
// segment when full. Caller holds s.mu. Returns the frame's offset and
// the segment it landed in.
func (s *Store) appendLocked(frame []byte) (int64, *segment, error) {
	seg := s.segs[len(s.segs)-1]
	if seg.size+int64(len(frame)) > s.segMaxBytes && seg.size > int64(len(segMagic)) {
		var err error
		seg, err = s.addSegment()
		if err != nil {
			return 0, nil, err
		}
	}
	off := seg.size
	if _, err := seg.f.WriteAt(frame, off); err != nil {
		return 0, nil, fmt.Errorf("store: appending record: %w", err)
	}
	seg.size += int64(len(frame))
	if s.fsync == FsyncAlways {
		if err := seg.f.Sync(); err != nil {
			return 0, nil, fmt.Errorf("store: syncing segment: %w", err)
		}
	}
	return off, seg, nil
}

// evictOverBudgetLocked evicts least-recently-accessed records until the
// live bytes fit MaxBytes. Caller holds s.mu.
func (s *Store) evictOverBudgetLocked() {
	if s.maxBytes <= 0 || s.liveBytes.Load() <= s.maxBytes {
		return
	}
	type cand struct {
		key    string
		access uint64
	}
	cands := make([]cand, 0, len(s.index))
	for k, r := range s.index {
		cands = append(cands, cand{key: k, access: r.access})
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].access < cands[j].access })
	for _, c := range cands {
		if s.liveBytes.Load() <= s.maxBytes {
			break
		}
		if r, ok := s.index[c.key]; ok {
			s.dropLocked(c.key, r)
			s.markEvict()
		}
	}
}

// --- compaction ---

// needsCompactionLocked reports whether any sealed segment's dead
// fraction crosses the threshold. Caller holds s.mu.
func (s *Store) needsCompactionLocked() bool {
	if s.compactFraction < 0 {
		return false
	}
	for _, seg := range s.segs[:len(s.segs)-1] {
		if seg.size > int64(len(segMagic)) && float64(seg.dead)/float64(seg.size) >= s.compactFraction {
			return true
		}
	}
	return false
}

// compactAsync runs one compaction pass in the background, coalescing
// concurrent triggers.
func (s *Store) compactAsync() {
	if !s.compacting.CompareAndSwap(false, true) {
		return
	}
	go func() {
		defer s.compacting.Store(false)
		_, _ = s.Compact()
	}()
}

// Compact rewrites the live records of every sealed segment whose dead
// fraction crosses the threshold into the active segment, then deletes
// the old files. Returns how many records were moved.
func (s *Store) Compact() (int, error) {
	moved := 0
	for {
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			return moved, nil
		}
		// Only segments carrying dead bytes qualify — segments freshly
		// rolled while this pass moved records have none, so the loop
		// terminates. A negative fraction disables the background
		// trigger but still lets an explicit Compact reclaim any waste.
		thresh := s.compactFraction
		if thresh < 0 {
			thresh = 0
		}
		var victim *segment
		for _, seg := range s.segs[:len(s.segs)-1] {
			if seg.dead <= 0 {
				continue
			}
			if float64(seg.dead)/float64(seg.size) >= thresh {
				victim = seg
				break
			}
		}
		if victim == nil {
			s.mu.Unlock()
			return moved, nil
		}
		n, err := s.compactSegmentLocked(victim)
		moved += n
		s.mu.Unlock()
		if err != nil {
			return moved, err
		}
	}
}

// compactSegmentLocked moves seg's live records to the active segment
// and removes seg. Caller holds s.mu.
func (s *Store) compactSegmentLocked(victim *segment) (int, error) {
	moved := 0
	for key, r := range s.index {
		if r.seg != victim {
			continue
		}
		buf := make([]byte, r.frameLen)
		if _, err := victim.f.ReadAt(buf, r.off); err != nil {
			s.markCorrupt()
			s.dropLocked(key, r)
			continue
		}
		payload := buf[recHeaderLen:]
		if crc32.ChecksumIEEE(payload) != binary.BigEndian.Uint32(buf[0:4]) {
			s.markCorrupt()
			s.dropLocked(key, r)
			continue
		}
		// A record whose expiry was since revised by a touch must be
		// re-encoded with the index's current expiry: the moved copy lands
		// after the touch frame in log order, so a raw byte copy would
		// resurrect the stale expiry on the next recovery scan. The frame
		// length is unchanged (the expiry field is fixed-width).
		if op, k, mime, data, exp, perr := decodePayload(payload); perr == nil && op == opPut && exp != r.expires {
			buf = encodeRecord(opPut, k, mime, data, r.expires)
		}
		off, seg, err := s.appendLocked(buf)
		if err != nil {
			return moved, err
		}
		r.seg, r.off = seg, off
		moved++
		s.compacted.Add(1)
	}
	// Unlink the drained segment.
	for i, seg := range s.segs {
		if seg == victim {
			s.segs = append(s.segs[:i], s.segs[i+1:]...)
			break
		}
	}
	_ = victim.f.Close()
	if err := os.Remove(victim.path); err != nil {
		return moved, fmt.Errorf("store: removing compacted segment: %w", err)
	}
	return moved, nil
}

// --- iteration (cache rehydration) ---

// Keys returns the live, unexpired keys ordered most recently accessed
// first — the order cache rehydration should load them in.
func (s *Store) Keys() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	now := s.clock().UnixNano()
	type ka struct {
		key    string
		access uint64
	}
	all := make([]ka, 0, len(s.index))
	for k, r := range s.index {
		if r.expires != 0 && r.expires <= now {
			continue
		}
		all = append(all, ka{key: k, access: r.access})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].access > all[j].access })
	keys := make([]string, len(all))
	for i, e := range all {
		keys[i] = e.key
	}
	return keys
}

// --- lifecycle ---

func (s *Store) syncLoop(every time.Duration) {
	defer close(s.syncDone)
	ticker := time.NewTicker(every)
	defer ticker.Stop()
	for {
		select {
		case <-s.syncStop:
			return
		case <-ticker.C:
			s.Sync()
		}
	}
}

// Sync flushes the active segment to stable storage.
func (s *Store) Sync() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || len(s.segs) == 0 {
		return
	}
	_ = s.segs[len(s.segs)-1].f.Sync()
}

// Close syncs and closes every segment file. Idempotent.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	stop := s.syncStop
	s.mu.Unlock()
	if stop != nil {
		close(stop)
		<-s.syncDone
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var first error
	for _, seg := range s.segs {
		if err := seg.f.Sync(); err != nil && first == nil {
			first = err
		}
		if err := seg.f.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// closeFiles releases segment handles after a failed Open.
func (s *Store) closeFiles() {
	for _, seg := range s.segs {
		_ = seg.f.Close()
	}
}

// Len returns the number of live records.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.index)
}

// Bytes returns the live record bytes currently accounted against
// MaxBytes.
func (s *Store) Bytes() int64 { return s.liveBytes.Load() }

// Stats returns a snapshot of the counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	segs, records := len(s.segs), len(s.index)
	s.mu.Unlock()
	return Stats{
		Hits:             s.hits.Load(),
		Misses:           s.misses.Load(),
		Puts:             s.puts.Load(),
		Deletes:          s.deletes.Load(),
		Evictions:        s.evictions.Load(),
		CompactedRecords: s.compacted.Load(),
		RecoveredRecords: s.recovered.Load(),
		CorruptRecords:   s.corrupt.Load(),
		ScanDuration:     s.scanDur,
		LiveBytes:        s.liveBytes.Load(),
		Segments:         segs,
		Records:          records,
	}
}
