// Package store is the durable tier under m.Site's render cache (§3.3
// "cacheable" made durable): bundles, snapshots and AJAX fragments
// survive a restart, so a restarted proxy serves them without
// re-rendering. All of it can be rebuilt from the origin, so the store
// promises only the old record or none: one file per record, written by
// temp file, fsync and rename; a torn, corrupt or expired file is
// deleted and rebuilt on a miss.
package store

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"msite/internal/obs"
)

// A record file is magic | CRC32 (IEEE) of the rest | expires (unix ns,
// 0 = never) | len(key) | key | len(mime) | mime | data: big-endian,
// uint32 lengths, data to the end of the file.
const (
	magic     = "MSITERC1"
	fixedLen  = len(magic) + 4 + 8 + 4 // up to and including len(key)
	recExt    = ".rec"
	tmpPrefix = "tmp-"
)

// Options configures a Store: Dir holds the record files (required;
// created if missing), and Clock is the time source (nil: time.Now).
type Options struct {
	Dir   string
	Clock func() time.Time
}

// Stats is a snapshot of the counters. RecoveredRecords are the files
// Open indexed, CorruptRecords the damaged ones Open or Get deleted.
type Stats struct {
	Hits, Misses, Puts               uint64
	RecoveredRecords, CorruptRecords uint64
	ScanDuration                     time.Duration
	LiveBytes                        int64
	Records                          int
}

// entry indexes a record file; access (mtime, then a tick) orders Keys.
type entry struct{ size, expires, access int64 }

// Store is a directory of record files, safe for concurrent use. One
// mutex orders every rename, unlink and read against the index.
type Store struct {
	dir    string
	clock  func() time.Time
	mu     sync.Mutex
	index  map[string]*entry
	tick   int64 // the last access stamp handed out
	closed bool
	st     Stats
	// Registry counters, nil until SetObs.
	hits, misses, corrupt *obs.Counter
}

// Open opens (or creates) the store in o.Dir and indexes its records.
// It deletes temp files and expired or corrupt records (a failed delete
// is retried at the next Open), ignores other files such as older
// binaries' seg-*.log, and fails only on I/O errors.
func Open(o Options) (*Store, error) {
	if o.Dir == "" {
		return nil, errors.New("store: empty directory")
	}
	if err := os.MkdirAll(o.Dir, 0o700); err != nil {
		return nil, fmt.Errorf("store: creating dir: %w", err)
	}
	s := &Store{dir: o.Dir, clock: o.Clock, index: make(map[string]*entry)}
	if s.clock == nil {
		s.clock = time.Now
	}
	start := time.Now()
	files, err := os.ReadDir(o.Dir)
	if err != nil {
		return nil, fmt.Errorf("store: listing dir: %w", err)
	}
	now := s.clock().UnixNano()
	for _, f := range files {
		name, path := f.Name(), filepath.Join(o.Dir, f.Name())
		if strings.HasPrefix(name, tmpPrefix) {
			_ = os.Remove(path)
		}
		if !f.Type().IsRegular() || !strings.HasSuffix(name, recExt) {
			continue
		}
		b, err := os.ReadFile(path)
		info, ierr := f.Info()
		if err = errors.Join(err, ierr); err != nil {
			return nil, fmt.Errorf("store: reading record: %w", err)
		}
		key, _, _, expires, ok := decode(b)
		if !ok || fileName(key) != name {
			s.st.CorruptRecords++
			_ = os.Remove(path)
		} else if expired(expires, now) {
			_ = os.Remove(path)
		} else {
			e := &entry{size: int64(len(b)), expires: expires, access: info.ModTime().UnixNano()}
			s.index[key], s.tick = e, max(s.tick, e.access)
		}
	}
	s.st.RecoveredRecords = uint64(len(s.index))
	s.st.ScanDuration = time.Since(start)
	return s, nil
}

// fileName hashes key, so a key never becomes a path component.
func fileName(key string) string {
	sum := sha256.Sum256([]byte(key))
	return hex.EncodeToString(sum[:]) + recExt
}

func expired(expires, now int64) bool { return expires != 0 && expires <= now }

// encodeHead returns a record up to its data, CRC (of data too) set.
func encodeHead(key, mime string, expires int64, data []byte) []byte {
	h := make([]byte, fixedLen+len(key)+4+len(mime))
	copy(h, magic)
	binary.BigEndian.PutUint64(h[12:], uint64(expires))
	binary.BigEndian.PutUint32(h[20:], uint32(len(key)))
	n := fixedLen + copy(h[fixedLen:], key)
	binary.BigEndian.PutUint32(h[n:], uint32(len(mime)))
	copy(h[n+4:], mime)
	crc := crc32.Update(crc32.ChecksumIEEE(h[12:]), crc32.IEEETable, data)
	binary.BigEndian.PutUint32(h[8:], crc)
	return h
}

// decode verifies and parses one record file; data aliases b.
func decode(b []byte) (key, mime string, data []byte, expires int64, ok bool) {
	if len(b) < 20 || string(b[:len(magic)]) != magic ||
		crc32.ChecksumIEEE(b[12:]) != binary.BigEndian.Uint32(b[8:]) {
		return "", "", nil, 0, false
	}
	f, rest := [2][]byte{}, b[20:] // key and mime, then the data
	for i := range f {
		if len(rest) < 4 || uint64(binary.BigEndian.Uint32(rest)) > uint64(len(rest)-4) {
			return "", "", nil, 0, false
		}
		n := 4 + int(binary.BigEndian.Uint32(rest))
		f[i], rest = rest[4:n], rest[n:]
	}
	return string(f[0]), string(f[1]), rest, int64(binary.BigEndian.Uint64(b[12:])), true
}

// SetObs registers the msite_store_* metrics on reg, Open's scan counted.
func (s *Store) SetObs(reg *obs.Registry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.hits = reg.Counter("msite_store_hits_total")
	s.misses = reg.Counter("msite_store_misses_total")
	s.corrupt = reg.Counter("msite_store_corrupt_records_total")
	s.corrupt.Add(s.st.CorruptRecords)
	reg.Counter("msite_store_recovered_records_total").Add(s.st.RecoveredRecords)
	reg.GaugeFunc("msite_store_bytes", func() float64 { return float64(s.Stats().LiveBytes) })
	reg.GaugeFunc("msite_store_records", func() float64 { return float64(s.Len()) })
}

// count bumps a Stats field and its registry counter. Caller holds s.mu.
func count(n *uint64, c *obs.Counter) {
	*n++
	if c != nil {
		c.Inc()
	}
}

// Get returns key's record if present and unexpired. An expired or
// corrupt (bad CRC, another key's) file is deleted; corrupt is counted.
func (s *Store) Get(key string) (data []byte, mime string, expires time.Time, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.index[key]
	if s.closed || e == nil {
		count(&s.st.Misses, s.misses)
		return nil, "", time.Time{}, false
	}
	b, err := os.ReadFile(filepath.Join(s.dir, fileName(key)))
	k, mime, data, exp, valid := decode(b)
	switch {
	case err == nil && (!valid || k != key):
		count(&s.st.CorruptRecords, s.corrupt)
		fallthrough
	case err != nil || expired(exp, s.clock().UnixNano()):
		_ = s.dropLocked(key)
		count(&s.st.Misses, s.misses)
		return nil, "", time.Time{}, false
	}
	s.tick++
	e.access = s.tick
	count(&s.st.Hits, s.hits)
	if exp != 0 {
		expires = time.Unix(0, exp)
	}
	return data, mime, expires, true
}

// dropLocked forgets key and unlinks its file. Caller holds s.mu.
func (s *Store) dropLocked(key string) error {
	delete(s.index, key)
	if err := os.Remove(filepath.Join(s.dir, fileName(key))); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("store: deleting record: %w", err)
	}
	return nil
}

// Put writes key's record to a temp file, fsyncs it and renames it over
// the old one. A non-positive ttl stores the record without expiry.
func (s *Store) Put(key string, data []byte, mime string, ttl time.Duration) error {
	var expires int64
	if ttl > 0 {
		expires = s.clock().Add(ttl).UnixNano()
	}
	head := encodeHead(key, mime, expires, data)
	f, err := os.CreateTemp(s.dir, tmpPrefix+"*")
	if err != nil {
		return fmt.Errorf("store: writing record: %w", err)
	}
	if _, err = f.Write(head); err == nil {
		_, err = f.Write(data)
	}
	err = errors.Join(err, f.Sync(), f.Close())
	s.mu.Lock()
	defer s.mu.Unlock()
	if err == nil && s.closed {
		err = errors.New("closed")
	} else if err == nil {
		err = os.Rename(f.Name(), filepath.Join(s.dir, fileName(key)))
	}
	if err != nil {
		_ = os.Remove(f.Name())
		return fmt.Errorf("store: writing record: %w", err)
	}
	s.tick++
	s.index[key] = &entry{size: int64(len(head) + len(data)), expires: expires, access: s.tick}
	s.st.Puts++
	return nil
}

// Delete unlinks key's record file.
func (s *Store) Delete(key string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errors.New("store: closed")
	}
	return s.dropLocked(key)
}

// Keys returns the unexpired keys, most recently accessed first.
func (s *Store) Keys() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	now := s.clock().UnixNano()
	keys := make([]string, 0, len(s.index))
	for k, e := range s.index {
		if !expired(e.expires, now) {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool { return s.index[keys[i]].access > s.index[keys[j]].access })
	return keys
}

// Close makes later Puts and Deletes fail and Gets miss. Idempotent.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	return nil
}

// Len returns the number of live records.
func (s *Store) Len() int { return s.Stats().Records }

// Stats returns a snapshot of the counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.st
	st.Records = len(s.index)
	for _, e := range s.index {
		st.LiveBytes += e.size
	}
	return st
}
