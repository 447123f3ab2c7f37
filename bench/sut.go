package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"msite/internal/cache"
	"msite/internal/core"
	"msite/internal/experiments"
)

// childEnv marks a re-executed harness binary (the SUT in serve mode);
// the test binary's TestMain checks it so `go test` can spawn a real SUT.
const childEnv = "MSITE_BENCH_CHILD"

// counters is what the load generator reads at every round boundary: the
// SUT's CPU time and the work counters whose per-view deltas define each
// workload. Everything here is an atomic read plus one getrusage.
type counters struct {
	CPUNs           int64  `json:"cpu_ns"`
	Adaptations     uint64 `json:"adaptations"`
	SnapshotRenders uint64 `json:"snapshot_renders"`
	BundleReuses    uint64 `json:"bundle_reuses"`
}

// runStats is read once before and once after the measured rounds.
type runStats struct {
	counters
	TotalAlloc   uint64 `json:"total_alloc"`
	Mallocs      uint64 `json:"mallocs"`
	NumGC        uint32 `json:"num_gc"`
	PauseTotalNs uint64 `json:"pause_total_ns"`
	VmHWMKB      int64  `json:"vm_hwm_kb"`
	FileSyscalls int64  `json:"file_syscalls"`
	CacheHits    uint64 `json:"cache_hits"`
	CacheMisses  uint64 `json:"cache_misses"`
}

// sut is the system under test as the load generator sees it. remoteSUT
// is the real thing (a child process behind a socket); localSUT is the
// same Framework in this process, used by the traced run and by serve
// mode to answer the control endpoints.
type sut interface {
	counters() (counters, error)
	stats() (runStats, error)
	// reset drops every retained artifact (L1 cache, durable store) and,
	// when sessionID is set, that session, so the next view is a
	// first-ever visit.
	reset(sessionID string) error
	retire(sessionID string) error
	gc() error
	close() error
}

// localSUT wires the pinned configuration: the evaluation spec, a
// session root, a durable store, every other knob at its default.
type localSUT struct {
	fw  *core.Framework
	dir string
}

func newLocalSUT(originURL, dir string) (*localSUT, error) {
	fw, err := core.New(experiments.SpecForForum(originURL), core.Config{
		SessionRoot: filepath.Join(dir, "sessions"),
		StoreDir:    filepath.Join(dir, "store"),
	})
	if err != nil {
		return nil, err
	}
	return &localSUT{fw: fw, dir: dir}, nil
}

func (s *localSUT) counters() (counters, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return counters{}, fmt.Errorf("getrusage: %w", err)
	}
	ps := s.fw.ProxyStats()
	return counters{
		CPUNs:           ru.Utime.Nano() + ru.Stime.Nano(),
		Adaptations:     ps.Adaptations,
		SnapshotRenders: ps.SnapshotRenders,
		BundleReuses:    s.fw.Obs().Counter("msite_proxy_bundle_reuses_total", "site", s.fw.Spec().Name).Value(),
	}, nil
}

func (s *localSUT) stats() (runStats, error) {
	c, err := s.counters()
	if err != nil {
		return runStats{}, err
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	cs := s.fw.CacheStats()
	return runStats{
		counters:     c,
		TotalAlloc:   ms.TotalAlloc,
		Mallocs:      ms.Mallocs,
		NumGC:        ms.NumGC,
		PauseTotalNs: ms.PauseTotalNs,
		VmHWMKB:      procStatusKB("VmHWM"),
		FileSyscalls: procIOSyscalls(),
		CacheHits:    cs.Hits,
		CacheMisses:  cs.Misses,
	}, nil
}

// flush waits for the tiered cache's asynchronous store writes: a build's
// bundle Put must land before the reset deletes it, and the deletes must
// land before the next view starts.
func (s *localSUT) flush() error {
	if t, ok := s.fw.Cache().(*cache.Tiered); ok && !t.Flush(10*time.Second) {
		return errors.New("store write-through did not drain")
	}
	return nil
}

func (s *localSUT) reset(sessionID string) error {
	if err := s.flush(); err != nil {
		return err
	}
	for _, key := range s.fw.Store().Keys() {
		s.fw.Cache().Delete(key)
	}
	s.fw.Cache().Purge()
	if err := s.flush(); err != nil {
		return err
	}
	if n := s.fw.Store().Len(); n != 0 {
		return fmt.Errorf("reset left %d store records", n)
	}
	if sessionID != "" {
		return s.retire(sessionID)
	}
	return nil
}

func (s *localSUT) retire(sessionID string) error {
	return s.fw.Sessions().Delete(sessionID)
}

func (s *localSUT) gc() error {
	runtime.GC()
	return nil
}

func (s *localSUT) close() error {
	s.fw.Close()
	return os.RemoveAll(s.dir)
}

// procStatusKB reads one kB-valued field of /proc/self/status.
func procStatusKB(field string) int64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			v, _ := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 10, 64)
			return v
		}
	}
	return 0
}

// procIOSyscalls is read+write syscalls of this process so far
// (/proc/self/io syscr+syscw).
func procIOSyscalls() int64 {
	data, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return 0
	}
	var total int64
	for _, line := range strings.Split(string(data), "\n") {
		for _, field := range []string{"syscr:", "syscw:"} {
			if rest, ok := strings.CutPrefix(line, field); ok {
				v, _ := strconv.ParseInt(strings.TrimSpace(rest), 10, 64)
				total += v
			}
		}
	}
	return total
}

// serve is the SUT process: the Framework behind an http.Server on a
// loopback port, the /bench/ control mux beside it. It prints its address
// as one line on stdout and runs until stdin closes, so it cannot outlive
// the load generator.
func serve(originURL, dir string) error {
	s, err := newLocalSUT(originURL, dir)
	if err != nil {
		return err
	}
	defer func() { _ = s.close() }()

	mux := http.NewServeMux()
	mux.Handle("/", s.fw.Handler())
	reply := func(w http.ResponseWriter, v any, err error) {
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(v)
	}
	mux.HandleFunc("/bench/counters", func(w http.ResponseWriter, _ *http.Request) {
		c, err := s.counters()
		reply(w, c, err)
	})
	mux.HandleFunc("/bench/stats", func(w http.ResponseWriter, _ *http.Request) {
		st, err := s.stats()
		reply(w, st, err)
	})
	mux.HandleFunc("/bench/reset", func(w http.ResponseWriter, r *http.Request) {
		reply(w, struct{}{}, s.reset(r.URL.Query().Get("session")))
	})
	mux.HandleFunc("/bench/retire", func(w http.ResponseWriter, r *http.Request) {
		reply(w, struct{}{}, s.retire(r.URL.Query().Get("session")))
	})
	mux.HandleFunc("/bench/gc", func(w http.ResponseWriter, _ *http.Request) {
		reply(w, struct{}{}, s.gc())
	})

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: mux, ReadHeaderTimeout: 10 * time.Second}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	fmt.Println(ln.Addr().String())

	stdinClosed := make(chan struct{})
	go func() {
		_, _ = io.Copy(io.Discard, os.Stdin)
		close(stdinClosed)
	}()
	select {
	case err := <-served:
		return err
	case <-stdinClosed:
		return srv.Close()
	}
}

// remoteSUT is a spawned serve-mode child.
type remoteSUT struct {
	cmd   *exec.Cmd
	stdin io.WriteCloser
	addr  string
	ctl   *http.Client
}

// spawnSUT re-executes this binary in serve mode and waits until it
// listens.
func spawnSUT(originURL, dir string) (*remoteSUT, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "serve", "-origin", originURL, "-dir", dir)
	cmd.Env = append(os.Environ(), childEnv+"=1")
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	addr, err := bufio.NewReader(stdout).ReadString('\n')
	if err != nil {
		_ = stdin.Close()
		_ = cmd.Wait()
		return nil, fmt.Errorf("SUT did not report its address: %w", err)
	}
	return &remoteSUT{
		cmd:   cmd,
		stdin: stdin,
		addr:  strings.TrimSpace(addr),
		ctl:   &http.Client{Timeout: 30 * time.Second},
	}, nil
}

func (r *remoteSUT) call(path string, out any) error {
	resp, err := r.ctl.Get("http://" + r.addr + path)
	if err != nil {
		return err
	}
	defer func() { _ = resp.Body.Close() }()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("SUT %s: %d %s", path, resp.StatusCode, strings.TrimSpace(string(body)))
	}
	return json.Unmarshal(body, out)
}

func (r *remoteSUT) counters() (c counters, err error) { return c, r.call("/bench/counters", &c) }
func (r *remoteSUT) stats() (st runStats, err error)   { return st, r.call("/bench/stats", &st) }
func (r *remoteSUT) gc() error                         { return r.call("/bench/gc", &struct{}{}) }

func (r *remoteSUT) reset(sessionID string) error {
	return r.call("/bench/reset?session="+url.QueryEscape(sessionID), &struct{}{})
}

func (r *remoteSUT) retire(sessionID string) error {
	return r.call("/bench/retire?session="+url.QueryEscape(sessionID), &struct{}{})
}

// close ends the child by closing its stdin and waits for it.
func (r *remoteSUT) close() error {
	r.ctl.CloseIdleConnections()
	_ = r.stdin.Close()
	return r.cmd.Wait()
}
