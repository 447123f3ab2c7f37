package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"msite/internal/device"
)

// options are the knobs of one run. The driver sets seed, seconds and
// traced; the rest exist so the tests can run a workload in a second.
type options struct {
	seed    int64
	seconds float64
	traced  bool
	// setups is how many times set-up is run and timed (median reported).
	setups int
	// warmup runs one discarded round first, which also sizes the rounds.
	warmup bool
	// block is the view schedule unit; blocksPerRound 0 sizes a round to
	// about a second from the warm-up round.
	block          [][2]string
	blocksPerRound int
	// population is warm_browse's live sessions; retireWindow is how many
	// views a new_session session outlives.
	population, retireWindow int
	// censusViews sizes the traced run's census of request kinds and its
	// layer-by-layer replay of the cold pipeline.
	censusViews int
	// outDir receives trace-<workload>.json; workDir holds session and
	// store directories for the run.
	outDir, workDir string
}

func defaultOptions() options {
	return options{
		seed: 42, seconds: 24, setups: 3, warmup: true,
		block: viewBlock, population: 64, retireWindow: 512,
		censusViews: 4,
	}
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the run's verdict; its JSON is the last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// layer holds the diagnostics an untraced run prints but does not
	// report (they are per-layer metrics of the traced run); rounds is one
	// printed line per round, so a disturbed run shows in its own output.
	layer  map[string]metric
	rounds []string
}

// client is one closed-loop device driver on its own connection.
type client struct {
	b      *browser
	rng    *rand.Rand
	phones []*phone // warm_browse: this client's share of the population
	next   int
	live   []string // new_session: sessions not yet retired, oldest first
	last   string   // cold: the previous view's session
}

// roundData is what one client measured in one round.
type roundData struct {
	durMs   []float64
	modelMs []float64
	wire    int64
	failed  int
}

// bench is one run in progress.
type bench struct {
	w      workload
	o      options
	origin *seededOrigin
	sut    sut
	site   *site
	tr     *tracer
	// newLink connects a client to the current SUT.
	newLink func() link
	clients []*client
	viewSeq atomic.Int64
	errOnce sync.Map
}

func (b *bench) logf(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	if _, dup := b.errOnce.LoadOrStore(msg, true); !dup {
		fmt.Fprintln(os.Stderr, "bench:", msg)
	}
}

func clientCount(w workload) int {
	n := runtime.NumCPU()
	if n > w.maxClients {
		n = w.maxClients
	}
	return n
}

// setUp brings a fresh SUT to the workload's starting state: one verified
// cold build (which also teaches the harness what correct documents look
// like) and, for warm_browse, the population of live sessions.
func (b *bench) setUp() error {
	b.site = &site{
		subpages: subpageNames,
		markers: map[string]string{
			"forums": `"` + b.origin.threads + `"`,
			"login":  `alt="` + b.origin.name + `"`,
			"nav":    b.origin.url + "/register.php",
		},
		snapshotWidth: 460, // the spec renders at 1024 px and scales by 0.45
		complexity:    make(map[string]device.PageComplexity),
	}
	before, err := b.sut.counters()
	if err != nil {
		return err
	}
	hits := b.origin.hits()
	first := &browser{link: b.newLink(), site: b.site, tr: b.tr}
	defer first.link.close()
	if v := first.view(newPhone(), subpageNames, "proxy.entry_cold", int(b.viewSeq.Add(1)), true); v.err != nil {
		return fmt.Errorf("set-up cold view: %w", v.err)
	}
	after, err := b.sut.counters()
	if err != nil {
		return err
	}
	if after.Adaptations-before.Adaptations != 1 || after.SnapshotRenders-before.SnapshotRenders != 1 || b.origin.hits() == hits {
		return fmt.Errorf("set-up cold view did not build: %+v -> %+v", before, after)
	}

	n := clientCount(b.w)
	b.clients = make([]*client, n)
	for i := range b.clients {
		b.clients[i] = &client{
			b:   &browser{link: b.newLink(), site: b.site, tr: b.tr},
			rng: rand.New(rand.NewSource(b.o.seed*1000 + int64(i))),
		}
	}
	if !b.w.freshPhone {
		// Pre-create the population: each phone sees every document once,
		// so its validator cache is as warm as its session.
		for i := 0; i < b.o.population; i++ {
			c := b.clients[i%n]
			p := newPhone()
			if v := c.b.view(p, subpageNames, "proxy.entry_new_session", int(b.viewSeq.Add(1)), false); v.err != nil {
				return fmt.Errorf("set-up session %d: %w", i, v.err)
			}
			c.phones = append(c.phones, p)
		}
	}
	return nil
}

func (b *bench) closeClients() {
	for _, c := range b.clients {
		c.b.link.close()
	}
	b.clients = nil
}

// oneView runs the client's next view of the workload.
func (b *bench) oneView(c *client, subs [2]string, rd *roundData) {
	var p *phone
	switch {
	case b.w.coldServer:
		if err := b.sut.reset(c.last); err != nil {
			b.logf("reset: %v", err)
			rd.failed++
		}
		p = newPhone()
	case b.w.freshPhone:
		p = newPhone()
	default:
		p = c.phones[c.next%len(c.phones)]
		c.next++
	}
	hits := b.origin.hits()
	v := c.b.view(p, subs[:], b.w.entrySpan, int(b.viewSeq.Add(1)), false)
	if v.err == nil && b.w.originTraffic && b.origin.hits() == hits {
		v.err = fmt.Errorf("cold view made no origin request")
	}
	if v.err != nil {
		b.logf("view failed: %v", v.err)
		rd.failed++
	}
	rd.durMs = append(rd.durMs, float64(v.dur)/1e6)
	rd.modelMs = append(rd.modelMs, float64(v.model3G())/1e6)
	rd.wire += v.wire

	switch {
	case b.w.coldServer:
		c.last = p.sessionID()
	case b.w.freshPhone:
		// Retire the session created retireWindow views ago, so live
		// sessions, disk and RSS do not depend on how fast the box is.
		c.live = append(c.live, p.sessionID())
		if len(c.live) > b.o.retireWindow/len(b.clients) {
			if err := b.sut.retire(c.live[0]); err != nil {
				b.logf("retire: %v", err)
				rd.failed++
			}
			c.live = c.live[1:]
		}
	}
}

// round is one measured slice of the run.
type round struct {
	views, failed int
	wall          time.Duration
	cpuNs         int64
	wire          int64
	durMs         []float64
	modelMs       []float64
}

// runRound has every client run that many whole blocks of views, then checks
// the counters that define the workload against the views made.
func (b *bench) runRound(blocks int) (round, error) {
	before, err := b.sut.counters()
	if err != nil {
		return round{}, err
	}
	hits := b.origin.hits()
	data := make([]roundData, len(b.clients))
	var wg sync.WaitGroup
	start := time.Now()
	for i, c := range b.clients {
		wg.Add(1)
		go func(c *client, rd *roundData) {
			defer wg.Done()
			for k := 0; k < blocks; k++ {
				for _, subs := range shuffledBlock(b.o.block, c.rng) {
					b.oneView(c, subs, rd)
				}
			}
		}(c, &data[i])
	}
	wg.Wait()
	r := round{wall: time.Since(start)}
	after, err := b.sut.counters()
	if err != nil {
		return round{}, err
	}
	for _, rd := range data {
		r.views += len(rd.durMs)
		r.failed += rd.failed
		r.wire += rd.wire
		r.durMs = append(r.durMs, rd.durMs...)
		r.modelMs = append(r.modelMs, rd.modelMs...)
	}
	r.cpuNs = after.CPUNs - before.CPUNs

	n := uint64(r.views)
	check := func(what string, got, perView uint64) {
		if got != perView*n {
			b.logf("workload invariant broken: %s moved by %d over %d views, want %d per view", what, got, n, perView)
			r.failed++
		}
	}
	check("adaptations", after.Adaptations-before.Adaptations, b.w.adaptations)
	check("snapshot renders", after.SnapshotRenders-before.SnapshotRenders, b.w.renders)
	check("bundle reuses", after.BundleReuses-before.BundleReuses, b.w.reuses)
	if !b.w.originTraffic && b.origin.hits() != hits {
		b.logf("workload invariant broken: %d origin requests on a warm server", b.origin.hits()-hits)
		r.failed++
	}
	if r.failed > r.views {
		r.failed = r.views
	}
	return r, nil
}

// measured is the timed part of a run.
type measured struct {
	rounds        []round
	before, after runStats
}

// measure runs rounds for about seconds: at least minRounds, and never a
// partial one, so every round carries the same mix of views.
func (b *bench) measure(seconds float64, minRounds int, eachRound func(i int)) (*measured, error) {
	blocks := b.o.blocksPerRound
	if b.o.warmup {
		// Discarded one-block rounds for a second: caches fill, and the
		// last of them sizes a measured round to about a second.
		var last round
		for start := time.Now(); last.views == 0 || time.Since(start) < time.Second; {
			var err error
			if last, err = b.runRound(1); err != nil {
				return nil, err
			}
			if last.failed > 0 {
				return nil, fmt.Errorf("warm-up round had %d failed views", last.failed)
			}
		}
		if blocks == 0 {
			blocks = int(float64(time.Second)/float64(last.wall) + 0.5)
		}
	}
	if blocks < 1 {
		blocks = 1
	}
	// One collection before timing, so no run starts with the garbage of
	// its set-up.
	if err := b.sut.gc(); err != nil {
		return nil, err
	}
	m := &measured{}
	var err error
	if m.before, err = b.sut.stats(); err != nil {
		return nil, err
	}
	start := time.Now()
	for i := 0; i < minRounds || time.Since(start).Seconds() < seconds; i++ {
		if eachRound != nil {
			eachRound(i)
		}
		r, err := b.runRound(blocks)
		if err != nil {
			return nil, err
		}
		m.rounds = append(m.rounds, r)
	}
	if m.after, err = b.sut.stats(); err != nil {
		return nil, err
	}
	return m, nil
}

// viewP50 is the median of the per-round median view times, in ms.
func (m *measured) viewP50() float64 {
	durs := make([][]float64, len(m.rounds))
	for i, r := range m.rounds {
		durs[i] = r.durMs
	}
	return medianOfRounds(durs)
}

func (m *measured) totals() (views, failed int, wire int64) {
	for _, r := range m.rounds {
		views += r.views
		failed += r.failed
		wire += r.wire
	}
	return
}

// layerMetrics are the run's timings and what describes the sample. They
// are layer metrics, not end-to-end ones: on this box they do not repeat
// within a tenth from run to run (see README, "Noise").
func (m *measured) layerMetrics() map[string]metric {
	var pooled, roundMedians, rates, cpu []float64
	for _, r := range m.rounds {
		pooled = append(pooled, r.durMs...)
		roundMedians = append(roundMedians, median(r.durMs))
		rates = append(rates, float64(r.views)/r.wall.Seconds())
		cpu = append(cpu, float64(r.cpuNs)/1e6/float64(r.views))
	}
	pct := tailPercentile(len(pooled))
	return map[string]metric{
		"loadgen.view_p50_ms":      {m.viewP50(), "ms"},
		"loadgen.views_per_s":      {median(rates), "1/s"},
		"loadgen.cpu_ms_per_view":  {median(cpu), "ms"},
		"loadgen.view_tail_ms":     {percentile(pooled, pct), "ms"},
		"loadgen.tail_pct":         {pct, "%"},
		"loadgen.samples":          {float64(len(pooled)), "count"},
		"loadgen.rounds":           {float64(len(m.rounds)), "count"},
		"loadgen.round_spread_pct": {spreadPct(roundMedians), "%"},
	}
}

// endToEnd derives the gated, device-visible metrics from the rounds.
func (m *measured) endToEnd() map[string]metric {
	views, _, wire := m.totals()
	var model []float64
	for _, r := range m.rounds {
		model = append(model, r.modelMs...)
	}
	n := float64(views)
	return map[string]metric{
		"alloc_kb_per_view":   {float64(m.after.TotalAlloc-m.before.TotalAlloc) / 1024 / n, "KB"},
		"allocs_per_view":     {float64(m.after.Mallocs-m.before.Mallocs) / n, "1"},
		"wire_bytes_per_view": {float64(wire) / n, "B"},
		"est_3g_view_ms":      {m.viewP50() + mean(model), "ms"},
		"peak_rss_mb":         {float64(m.after.VmHWMKB) / 1024, "MB"},
	}
}

// runWorkload is the untraced run: the SUT in its own process, the
// device-visible metrics and nothing else in the result.
func runWorkload(w workload, o options) (*result, error) {
	origin, err := startOrigin(o.seed, w.originDelay)
	if err != nil {
		return nil, err
	}
	defer origin.close()
	b := &bench{w: w, o: o, origin: origin}

	// Set-up is timed from spawning the SUT to the last pre-created
	// session; only the last SUT is kept.
	var setupS []float64
	for i := 0; i < o.setups; i++ {
		if b.sut != nil {
			b.closeClients()
			if err := b.sut.close(); err != nil {
				return nil, err
			}
		}
		start := time.Now()
		r, err := spawnSUT(origin.url, filepath.Join(o.workDir, fmt.Sprintf("sut%d", i)))
		if err != nil {
			return nil, err
		}
		b.sut = r
		b.newLink = func() link { return newSocketLink(r.addr) }
		if err := b.setUp(); err != nil {
			_ = r.close()
			return nil, err
		}
		setupS = append(setupS, time.Since(start).Seconds())
	}
	defer func() {
		b.closeClients()
		_ = b.sut.close()
	}()

	m, err := b.measure(o.seconds, 1, nil)
	if err != nil {
		return nil, err
	}
	views, failed, _ := m.totals()
	res := &result{Correct: failed == 0, Attempted: views, Failed: failed, Metrics: m.endToEnd(), layer: m.layerMetrics()}
	res.Metrics["setup_s"] = metric{median(setupS), "s"}
	for _, r := range m.rounds {
		res.rounds = append(res.rounds, fmt.Sprintf("round: view %.4f ms, %.2f views/s, cpu %.4f ms/view",
			median(r.durMs), float64(r.views)/r.wall.Seconds(), float64(r.cpuNs)/1e6/float64(r.views)))
	}
	res.layer["loadgen.clients"] = metric{float64(len(b.clients)), "count"}
	return res, nil
}
