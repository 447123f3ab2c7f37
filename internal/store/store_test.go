package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"msite/internal/obs"
)

func openTest(t *testing.T, dir string, mut ...func(*Options)) *Store {
	t.Helper()
	o := Options{Dir: dir}
	for _, m := range mut {
		m(&o)
	}
	s, err := Open(o)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { _ = s.Close() })
	return s
}

func TestPutGetRoundTrip(t *testing.T) {
	s := openTest(t, t.TempDir())
	if err := s.Put("page:a", []byte("hello"), "text/html", 0); err != nil {
		t.Fatalf("Put: %v", err)
	}
	data, mime, _, ok := s.Get("page:a")
	if !ok || string(data) != "hello" || mime != "text/html" {
		t.Fatalf("Get = %q, %q, %v; want hello, text/html, true", data, mime, ok)
	}
	if _, _, _, ok := s.Get("missing"); ok {
		t.Fatal("Get(missing) reported a hit")
	}
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Puts != 1 {
		t.Fatalf("stats = %+v; want 1 hit, 1 miss, 1 put", st)
	}
}

func TestOverwriteAndDelete(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir)
	if err := s.Put("k", []byte("v1"), "m1", 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("k", []byte("v2"), "m2", 0); err != nil {
		t.Fatal(err)
	}
	data, mime, _, ok := s.Get("k")
	if !ok || string(data) != "v2" || mime != "m2" {
		t.Fatalf("after overwrite Get = %q, %q, %v", data, mime, ok)
	}
	if files, _ := os.ReadDir(dir); len(files) != 1 {
		t.Fatalf("an overwritten key left %d files; want 1", len(files))
	}
	if err := s.Delete("k"); err != nil {
		t.Fatal(err)
	}
	if _, _, _, ok := s.Get("k"); ok {
		t.Fatal("Get after Delete reported a hit")
	}
	if files, _ := os.ReadDir(dir); len(files) != 0 {
		t.Fatalf("Delete left %d files behind", len(files))
	}
	if err := s.Delete("k"); err != nil {
		t.Fatalf("Delete of absent key: %v", err)
	}
}

func TestTTLExpiry(t *testing.T) {
	now := time.Unix(1000, 0)
	clock := func() time.Time { return now }
	s := openTest(t, t.TempDir(), func(o *Options) { o.Clock = clock })
	if err := s.Put("k", []byte("v"), "m", time.Minute); err != nil {
		t.Fatal(err)
	}
	if _, _, exp, ok := s.Get("k"); !ok || !exp.Equal(now.Add(time.Minute)) {
		t.Fatalf("fresh Get = ok=%v exp=%v", ok, exp)
	}
	now = now.Add(2 * time.Minute)
	if _, _, _, ok := s.Get("k"); ok {
		t.Fatal("expired record still served")
	}
	if s.Len() != 0 {
		t.Fatalf("expired record still indexed: Len = %d", s.Len())
	}
}

func TestReopenRecoversRecords(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir)
	for i := 0; i < 20; i++ {
		if err := s.Put(fmt.Sprintf("k%02d", i), []byte(fmt.Sprintf("val-%02d", i)), "text/plain", 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Delete("k05"); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	s2 := openTest(t, dir)
	st := s2.Stats()
	// The deleted record's file is gone, so 19 files are recovered.
	if st.RecoveredRecords != 19 {
		t.Fatalf("recovered %d records; want 19", st.RecoveredRecords)
	}
	if st.CorruptRecords != 0 {
		t.Fatalf("corrupt %d records in a clean directory", st.CorruptRecords)
	}
	if s2.Len() != 19 {
		t.Fatalf("Len = %d; want 19 (one deleted)", s2.Len())
	}
	for i := 0; i < 20; i++ {
		key := fmt.Sprintf("k%02d", i)
		data, _, _, ok := s2.Get(key)
		if i == 5 {
			if ok {
				t.Fatalf("deleted key %s resurrected on reopen", key)
			}
			continue
		}
		if !ok || string(data) != fmt.Sprintf("val-%02d", i) {
			t.Fatalf("Get(%s) after reopen = %q, %v", key, data, ok)
		}
	}
	if st.ScanDuration <= 0 {
		t.Fatalf("ScanDuration = %v; want > 0", st.ScanDuration)
	}
}

func TestReopenDropsExpired(t *testing.T) {
	dir := t.TempDir()
	now := time.Unix(1000, 0)
	clock := func() time.Time { return now }
	s := openTest(t, dir, func(o *Options) { o.Clock = clock })
	if err := s.Put("short", []byte("a"), "m", time.Second); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("long", []byte("b"), "m", time.Hour); err != nil {
		t.Fatal(err)
	}
	_ = s.Close()
	now = now.Add(time.Minute)
	s2 := openTest(t, dir, func(o *Options) { o.Clock = clock })
	if _, _, _, ok := s2.Get("short"); ok {
		t.Fatal("expired record survived reopen")
	}
	if _, _, _, ok := s2.Get("long"); !ok {
		t.Fatal("unexpired record lost on reopen")
	}
	if _, err := os.Stat(filepath.Join(dir, fileName("short"))); !os.IsNotExist(err) {
		t.Fatalf("expired record file not deleted at open: %v", err)
	}
}

func TestKeysRecentFirst(t *testing.T) {
	s := openTest(t, t.TempDir())
	for _, k := range []string{"a", "b", "c"} {
		if err := s.Put(k, []byte(k), "m", 0); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, _, ok := s.Get("a"); !ok { // touch a → most recent
		t.Fatal("Get(a)")
	}
	keys := s.Keys()
	if len(keys) != 3 || keys[0] != "a" || keys[1] != "c" || keys[2] != "b" {
		t.Fatalf("Keys = %v; want [a c b]", keys)
	}
}

// TestKeysOrderSurvivesReopen: Open seeds the access order from the
// record files' mtimes, newest first.
func TestKeysOrderSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir)
	base := time.Now().Add(-time.Hour)
	for i, k := range []string{"old", "mid", "new"} {
		if err := s.Put(k, []byte(k), "m", 0); err != nil {
			t.Fatal(err)
		}
		mtime := base.Add(time.Duration(i) * time.Minute)
		if err := os.Chtimes(filepath.Join(dir, fileName(k)), mtime, mtime); err != nil {
			t.Fatal(err)
		}
	}
	_ = s.Close()
	keys := openTest(t, dir).Keys()
	if len(keys) != 3 || keys[0] != "new" || keys[2] != "old" {
		t.Fatalf("Keys after reopen = %v; want [new mid old]", keys)
	}
}

func TestCloseIdempotent(t *testing.T) {
	s := openTest(t, t.TempDir())
	if err := s.Put("k", []byte("v"), "m", 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("first Close: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if err := s.Put("k2", nil, "", 0); err == nil {
		t.Fatal("Put after Close succeeded")
	}
	if _, _, _, ok := s.Get("k"); ok {
		t.Fatal("Get after Close reported a hit")
	}
}

// TestPutSurvivesUncleanAbandon: a Put that returned is on disk, so a
// store abandoned without Close (the in-process stand-in for SIGKILL)
// loses nothing.
func TestPutSurvivesUncleanAbandon(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir)
	for i := 0; i < 5; i++ {
		if err := s.Put(fmt.Sprintf("k%d", i), []byte("committed"), "m", 0); err != nil {
			t.Fatal(err)
		}
	}
	// No Close: just reopen the directory.
	s2 := openTest(t, dir)
	for i := 0; i < 5; i++ {
		if _, _, _, ok := s2.Get(fmt.Sprintf("k%d", i)); !ok {
			t.Fatalf("committed record k%d lost without clean shutdown", i)
		}
	}
}

func TestObsMetrics(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir)
	if err := s.Put("k", []byte("v"), "m", 0); err != nil {
		t.Fatal(err)
	}
	_ = s.Close()

	s2 := openTest(t, dir)
	reg := obs.NewRegistry()
	s2.SetObs(reg)
	s2.Get("k")
	s2.Get("absent")
	snap := reg.Snapshot()
	check := func(name string, want uint64) {
		t.Helper()
		c, ok := snap.Counter(name)
		if !ok || c.Value != want {
			t.Errorf("%s = %v (ok=%v); want %d", name, c, ok, want)
		}
	}
	check("msite_store_hits_total", 1)
	check("msite_store_misses_total", 1)
	check("msite_store_recovered_records_total", 1)
	check("msite_store_corrupt_records_total", 0)
}

func TestOpenEmptyDirAndMissingDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "nested", "store")
	s := openTest(t, dir)
	if s.Len() != 0 {
		t.Fatalf("fresh store Len = %d", s.Len())
	}
	if _, err := os.Stat(dir); err != nil {
		t.Fatalf("store dir not created: %v", err)
	}
	if _, err := Open(Options{}); err == nil {
		t.Fatal("Open with empty Dir succeeded")
	}
}

// TestHostileKeyStaysInDir: a key is hashed into its file name, so a
// key shaped like a path writes nothing outside the store's directory.
func TestHostileKeyStaysInDir(t *testing.T) {
	root := t.TempDir()
	dir := filepath.Join(root, "store")
	s := openTest(t, dir)
	key := "ajax:../../escape?p=/etc/passwd"
	if err := s.Put(key, []byte("v"), "m", 0); err != nil {
		t.Fatal(err)
	}
	if files, _ := os.ReadDir(root); len(files) != 1 {
		t.Fatalf("a path-shaped key wrote outside the store: %v", files)
	}
	if data, _, _, ok := s.Get(key); !ok || string(data) != "v" {
		t.Fatalf("Get(%q) = %q, %v", key, data, ok)
	}
}

// TestOldSegmentsIgnored: segment logs written by older binaries are
// neither read nor deleted; the store starts empty beside them.
func TestOldSegmentsIgnored(t *testing.T) {
	dir := t.TempDir()
	seg := filepath.Join(dir, "seg-0000000000000000.log")
	if err := os.WriteFile(seg, []byte("MSITESG1 old log bytes"), 0o600); err != nil {
		t.Fatal(err)
	}
	s := openTest(t, dir)
	if st := s.Stats(); st.Records != 0 || st.CorruptRecords != 0 {
		t.Fatalf("old segment counted: %+v", st)
	}
	if err := s.Put("k", []byte("v"), "m", 0); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(seg); err != nil {
		t.Fatalf("old segment touched: %v", err)
	}
}

func TestConcurrentAccess(t *testing.T) {
	s := openTest(t, t.TempDir())
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				key := fmt.Sprintf("g%d-k%d", g, i%10)
				switch i % 3 {
				case 0:
					if err := s.Put(key, []byte("v"), "m", 0); err != nil {
						t.Errorf("Put: %v", err)
						return
					}
				case 1:
					s.Get(key)
				default:
					if err := s.Delete(key); err != nil {
						t.Errorf("Delete: %v", err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestConcurrentPutsOfOneKeyNeverMix races Puts of one key, each record
// self-describing (every data byte and the MIME name the writer),
// against Gets and Deletes. A Get serves one whole record or misses,
// and a Get that loses to a Delete is a miss, not corruption.
func TestConcurrentPutsOfOneKeyNeverMix(t *testing.T) {
	s := openTest(t, t.TempDir())
	const writers, rounds = 4, 40
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			data := bytes.Repeat([]byte{byte('a' + w)}, 4096+w*1000)
			for i := 0; i < rounds; i++ {
				if err := s.Put("k", data, string(rune('a'+w)), 0); err != nil {
					t.Errorf("Put: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < writers*rounds; i++ {
			data, mime, _, ok := s.Get("k")
			if !ok {
				continue
			}
			if len(mime) != 1 || !bytes.Equal(data, bytes.Repeat([]byte(mime), 4096+int(mime[0]-'a')*1000)) {
				t.Errorf("Get served a mix: mime %q, %d bytes", mime, len(data))
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			if err := s.Delete("k"); err != nil {
				t.Errorf("Delete: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	if st := s.Stats(); st.CorruptRecords != 0 {
		t.Fatalf("races counted %d corrupt records", st.CorruptRecords)
	}
}
