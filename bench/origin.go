package main

import (
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"regexp"
	"sort"
	"sync"
	"time"

	"msite/internal/experiments"
	"msite/internal/origin"
)

// originHit is one entry of the origin's request log.
type originHit struct {
	start, end time.Time
	bytes      int
}

// seededOrigin is the synthetic forum the SUT adapts, generated from the
// workload seed and served on a loopback port by the load generator's
// process. It logs every request so the run can count origin traffic per
// view and per build.
type seededOrigin struct {
	url string
	// name is the seeded site branding; it survives into the login
	// subpage. threads is the first forum row's seeded thread count; it
	// survives into the forums subpage's search index.
	name, threads string

	srv *http.Server
	mu  sync.Mutex
	log []originHit
}

type countingWriter struct {
	http.ResponseWriter
	n int
}

func (w *countingWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.n += n
	return n, err
}

var threadsRE = regexp.MustCompile(`Threads: ([0-9,]+)`)

// startOrigin serves a forum whose content is a function of seed alone,
// delaying every response by latency (0 on every workload but cold_wan).
func startOrigin(seed int64, latency time.Duration) (*seededOrigin, error) {
	cfg := origin.DefaultForumConfig()
	cfg.Seed = seed
	// A fixed-width name keeps page sizes equal across seeds.
	cfg.Name = fmt.Sprintf("Sawdust %04x", rand.New(rand.NewSource(seed)).Intn(1<<16))
	forum := origin.NewForum(cfg)
	o := &seededOrigin{name: cfg.Name}

	inner := experiments.LatencyHandler(forum.Handler(), latency)
	logged := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		cw := &countingWriter{ResponseWriter: w}
		start := time.Now()
		inner.ServeHTTP(cw, r)
		o.mu.Lock()
		o.log = append(o.log, originHit{start: start, end: time.Now(), bytes: cw.n})
		o.mu.Unlock()
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	o.url = "http://" + ln.Addr().String()
	o.srv = &http.Server{Handler: logged, ReadHeaderTimeout: 10 * time.Second}
	go func() { _ = o.srv.Serve(ln) }()

	// The marker comes from the page the origin really serves.
	rec := &bodyRecorder{header: make(http.Header)}
	req, _ := http.NewRequest(http.MethodGet, o.url+"/", nil)
	forum.Handler().ServeHTTP(rec, req)
	m := threadsRE.FindSubmatch(rec.body)
	if m == nil {
		_ = o.srv.Close()
		return nil, fmt.Errorf("origin entry page has no thread count to use as a marker")
	}
	o.threads = string(m[1])
	return o, nil
}

func (o *seededOrigin) close() { _ = o.srv.Close() }

// hits is the number of requests logged so far.
func (o *seededOrigin) hits() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return len(o.log)
}

// since returns a copy of the log from index from on.
func (o *seededOrigin) since(from int) []originHit {
	o.mu.Lock()
	defer o.mu.Unlock()
	return append([]originHit(nil), o.log[from:]...)
}

// serialWaves counts the groups of requests that did not overlap in
// time: each group costs one origin round trip that no concurrency hid.
func serialWaves(hits []originHit) int {
	sorted := append([]originHit(nil), hits...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].start.Before(sorted[j].start) })
	waves := 0
	var waveEnd time.Time
	for _, h := range sorted {
		if waves == 0 || !h.start.Before(waveEnd) {
			waves++
			waveEnd = h.end
		} else if h.end.After(waveEnd) {
			waveEnd = h.end
		}
	}
	return waves
}

// bodyRecorder is a minimal in-memory http.ResponseWriter.
type bodyRecorder struct {
	header http.Header
	status int
	body   []byte
	first  time.Time // when the handler first wrote a status or a byte
}

func (r *bodyRecorder) Header() http.Header { return r.header }

func (r *bodyRecorder) WriteHeader(code int) {
	if r.status == 0 {
		r.status = code
		r.first = time.Now()
	}
}

func (r *bodyRecorder) Write(p []byte) (int, error) {
	if r.status == 0 {
		r.WriteHeader(http.StatusOK)
	}
	r.body = append(r.body, p...)
	return len(p), nil
}
