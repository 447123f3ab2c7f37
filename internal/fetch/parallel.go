package fetch

import (
	"context"
	"sync"
	"sync/atomic"

	"msite/internal/obs"
)

// DefaultWorkers is the FetchAll parallelism used when no explicit
// worker count is configured. Subresource fetches are latency-bound on
// the origin round-trip, not CPU, so the default is deliberately larger
// than typical core counts.
const DefaultWorkers = 8

// Result is the outcome of one URL in a FetchAll batch. Err is per-URL:
// one failed subresource never poisons the rest of the batch.
type Result struct {
	URL  string
	Page *Page
	Err  error
}

// FetchAll downloads every URL concurrently with a bounded worker pool
// and returns results in input order. workers <= 0 uses DefaultWorkers;
// workers == 1 degenerates to the serial loop. The in-flight request
// count is exported as the msite_fetch_concurrent gauge when the
// Fetcher carries an obs registry.
func (f *Fetcher) FetchAll(urls []string, workers int) []Result {
	return f.FetchAllContext(context.Background(), urls, workers)
}

// FetchAllContext is FetchAll bound to a caller deadline/cancellation:
// when ctx ends, in-flight requests abort and queued URLs fail fast with
// ctx's error instead of being attempted — a disconnected client stops
// costing the origin anything.
func (f *Fetcher) FetchAllContext(ctx context.Context, urls []string, workers int) []Result {
	results := make([]Result, len(urls))
	if len(urls) == 0 {
		return results
	}
	if workers <= 0 {
		workers = DefaultWorkers
	}
	if workers > len(urls) {
		workers = len(urls)
	}
	if workers == 1 {
		for i, u := range urls {
			if err := ctx.Err(); err != nil {
				results[i] = Result{URL: u, Err: err}
				continue
			}
			page, err := f.GetContext(ctx, u)
			results[i] = Result{URL: u, Page: page, Err: err}
		}
		return results
	}

	inflight := f.inflightGauge()
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(urls) {
					return
				}
				if err := ctx.Err(); err != nil {
					results[i] = Result{URL: urls[i], Err: err}
					continue
				}
				if inflight != nil {
					inflight.Add(1)
				}
				page, err := f.GetContext(ctx, urls[i])
				if inflight != nil {
					inflight.Add(-1)
				}
				results[i] = Result{URL: urls[i], Page: page, Err: err}
			}
		}()
	}
	wg.Wait()
	return results
}

func (f *Fetcher) inflightGauge() *obs.Gauge {
	if f.obs == nil {
		return nil
	}
	return f.obs.Gauge("msite_fetch_concurrent")
}
