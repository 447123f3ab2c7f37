package store

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// damage truncates path at a random byte or scribbles random garbage
// from there to its end, as a crash mid-write or a bad sector would.
func damage(t *testing.T, rng *rand.Rand, path string) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	cut := rng.Intn(len(b))
	if rng.Intn(2) == 0 {
		b = b[:cut]
	} else {
		rng.Read(b[cut:])
	}
	if err := os.WriteFile(path, b, 0o600); err != nil {
		t.Fatal(err)
	}
}

// TestRecoveryTornTailProperty is the crash-safety property test: write
// a random batch of records, then simulate a crash in the middle of one
// more Put, either before its rename (a temp file cut or scribbled at a
// random byte) or after it (the record file itself damaged). Open must
// succeed and serve the victim key's old record or none, never wrong
// bytes, with every other record intact and the store usable.
func TestRecoveryTornTailProperty(t *testing.T) {
	const iterations = 250
	rng := rand.New(rand.NewSource(5))
	for iter := 0; iter < iterations; iter++ {
		dir := t.TempDir()
		s, err := Open(Options{Dir: dir})
		if err != nil {
			t.Fatalf("iter %d: Open: %v", iter, err)
		}
		nCommitted := 1 + rng.Intn(12)
		want := make(map[string]string, nCommitted)
		for i := 0; i < nCommitted; i++ {
			key := fmt.Sprintf("k%03d", i)
			val := make([]byte, 1+rng.Intn(200))
			rng.Read(val)
			if err := s.Put(key, val, "application/octet-stream", 0); err != nil {
				t.Fatalf("iter %d: Put: %v", iter, err)
			}
			want[key] = string(val)
		}

		// The victim is an overwrite of a committed key or a new key.
		victim := "new-victim"
		if rng.Intn(2) == 0 {
			victim = fmt.Sprintf("k%03d", rng.Intn(nCommitted))
		}
		old, hadOld := want[victim]
		delete(want, victim)
		beforeRename := rng.Intn(2) == 0
		if beforeRename {
			val := make([]byte, 1+rng.Intn(300))
			rng.Read(val)
			tmp := filepath.Join(dir, tmpPrefix+"crash")
			if err := os.WriteFile(tmp, append(encodeHead(victim, "m", 0, val), val...), 0o600); err != nil {
				t.Fatal(err)
			}
			damage(t, rng, tmp)
		} else {
			if !hadOld {
				val := make([]byte, 1+rng.Intn(300))
				rng.Read(val)
				if err := s.Put(victim, val, "m", 0); err != nil {
					t.Fatal(err)
				}
				old, hadOld = string(val), true
			}
			damage(t, rng, filepath.Join(dir, fileName(victim)))
		}
		// Abandon without Close: the files are all that survives.

		s2, err := Open(Options{Dir: dir})
		if err != nil {
			t.Fatalf("iter %d: reopen after crash: %v", iter, err)
		}
		for key, val := range want {
			data, _, _, ok := s2.Get(key)
			if !ok || string(data) != val {
				t.Fatalf("iter %d: committed record %s lost or corrupted (ok=%v)", iter, key, ok)
			}
		}
		data, _, _, ok := s2.Get(victim)
		switch {
		case ok && (!hadOld || string(data) != old):
			t.Fatalf("iter %d: victim %s served bytes that were never committed", iter, victim)
		case beforeRename && hadOld && !ok:
			t.Fatalf("iter %d: an uncommitted overwrite lost the old record of %s", iter, victim)
		}
		files, _ := os.ReadDir(dir)
		for _, f := range files {
			if strings.HasPrefix(f.Name(), tmpPrefix) {
				t.Fatalf("iter %d: Open left temp file %s", iter, f.Name())
			}
		}

		if err := s2.Put("post-crash", []byte("ok"), "m", 0); err != nil {
			t.Fatalf("iter %d: Put after recovery: %v", iter, err)
		}
		if _, _, _, ok := s2.Get("post-crash"); !ok {
			t.Fatalf("iter %d: post-recovery write unreadable", iter)
		}
		if err := s2.Close(); err != nil {
			t.Fatalf("iter %d: Close after recovery: %v", iter, err)
		}
	}
}

// TestRecoveryDamagedRecordFiles flips bytes inside several record
// files, some before Open and one after it. Each damaged file is
// counted corrupt and deleted, its key misses, and every undamaged
// record is served intact.
func TestRecoveryDamagedRecordFiles(t *testing.T) {
	const iterations = 40
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < iterations; iter++ {
		dir := t.TempDir()
		s, err := Open(Options{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		want := make(map[string][]byte, 40)
		for i := 0; i < 40; i++ {
			key := fmt.Sprintf("k%03d", i)
			val := make([]byte, 100+rng.Intn(100))
			rng.Read(val)
			if err := s.Put(key, val, "m", 0); err != nil {
				t.Fatal(err)
			}
			want[key] = val
		}
		scribble := func(key string) {
			path := filepath.Join(dir, fileName(key))
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			off := rng.Intn(len(b) - 3)
			for i := off; i < off+4; i++ {
				b[i] ^= 0xff
			}
			if err := os.WriteFile(path, b, 0o600); err != nil {
				t.Fatal(err)
			}
		}
		damaged := map[string]bool{}
		for len(damaged) < 1+rng.Intn(5) {
			key := fmt.Sprintf("k%03d", rng.Intn(40))
			if !damaged[key] {
				damaged[key] = true
				scribble(key)
			}
		}

		s2, err := Open(Options{Dir: dir})
		if err != nil {
			t.Fatalf("iter %d: reopen with damaged records: %v", iter, err)
		}
		if st := s2.Stats(); st.CorruptRecords != uint64(len(damaged)) {
			t.Fatalf("iter %d: %d corrupt at open; want %d", iter, st.CorruptRecords, len(damaged))
		}
		// Damage that appears after Open is caught at read time.
		var late string
		for key := range want {
			if !damaged[key] {
				late = key
				break
			}
		}
		scribble(late)
		damaged[late] = true
		for key, val := range want {
			data, _, _, ok := s2.Get(key)
			if damaged[key] {
				if ok {
					t.Fatalf("iter %d: damaged record %s served", iter, key)
				}
				if _, err := os.Stat(filepath.Join(dir, fileName(key))); !os.IsNotExist(err) {
					t.Fatalf("iter %d: damaged record file %s not deleted: %v", iter, key, err)
				}
				continue
			}
			if !ok || !bytes.Equal(data, val) {
				t.Fatalf("iter %d: undamaged record %s lost or corrupted", iter, key)
			}
		}
		if st := s2.Stats(); st.CorruptRecords != uint64(len(damaged)) {
			t.Fatalf("iter %d: %d corrupt in all; want %d", iter, st.CorruptRecords, len(damaged))
		}
	}
}

// TestRecoveryEmptyAndHeaderOnlyFiles covers degenerate crash artifacts:
// a zero-byte record file, one cut inside its magic, and an empty temp
// file. Open deletes all three and keeps the committed record.
func TestRecoveryEmptyAndHeaderOnlyFiles(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("k", []byte("v"), "m", 0); err != nil {
		t.Fatal(err)
	}
	_ = s.Close()

	degenerate := map[string][]byte{
		fileName("empty"):  nil,
		fileName("header"): []byte(magic[:3]),
		tmpPrefix + "1":    nil,
	}
	for name, b := range degenerate {
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o600); err != nil {
			t.Fatal(err)
		}
	}
	s2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("reopen with degenerate files: %v", err)
	}
	defer s2.Close()
	if _, _, _, ok := s2.Get("k"); !ok {
		t.Fatal("committed record lost beside degenerate files")
	}
	if st := s2.Stats(); st.CorruptRecords != 2 {
		t.Fatalf("corrupt = %d; want 2 (the empty and the header-only record)", st.CorruptRecords)
	}
	for name := range degenerate {
		if _, err := os.Stat(filepath.Join(dir, name)); !os.IsNotExist(err) {
			t.Fatalf("degenerate file %s not deleted: %v", name, err)
		}
	}
	if err := s2.Put("k2", []byte("v2"), "m", time.Minute); err != nil {
		t.Fatalf("Put after degenerate recovery: %v", err)
	}
}

// FuzzRecord holds the record decoder to three rules: it never panics,
// an accepted input re-encodes to the same bytes, and any single flipped
// bit of an accepted input is refused.
func FuzzRecord(f *testing.F) {
	bundle := make([]byte, 120<<10)
	rand.New(rand.NewSource(1)).Read(bundle)
	f.Add(append(encodeHead("bundle:forum|1a2b3c|480|1", "application/x-msite-bundle", 0, bundle), bundle...))
	f.Add(append(encodeHead("k", "m", time.Unix(1000, 0).UnixNano(), []byte("v")), 'v'))
	f.Add([]byte(magic))
	f.Fuzz(func(t *testing.T, b []byte) {
		key, mime, data, expires, ok := decode(b)
		if !ok {
			return
		}
		if again := append(encodeHead(key, mime, expires, data), data...); !bytes.Equal(again, b) {
			t.Fatalf("accepted record re-encodes to other bytes")
		}
		// Every bit of a short record; a spread of 1024 of a long one.
		step := 1 + len(b)*8/1024
		for bit := 0; bit < len(b)*8; bit += step {
			flipped := bytes.Clone(b)
			flipped[bit/8] ^= 1 << (bit % 8)
			if _, _, _, _, ok := decode(flipped); ok {
				t.Fatalf("bit %d flipped and still accepted", bit)
			}
		}
	})
}
