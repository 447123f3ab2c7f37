package fetch

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestFetchAllOrderAndIsolation checks results come back in input order
// with per-URL error isolation.
func TestFetchAllOrderAndIsolation(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/boom" {
			http.Error(w, "no", http.StatusInternalServerError)
			return
		}
		fmt.Fprintf(w, "body:%s", r.URL.Path)
	}))
	defer srv.Close()

	urls := []string{
		srv.URL + "/a",
		srv.URL + "/boom",
		srv.URL + "/b",
		srv.URL + "/c",
	}
	results := New(nil).FetchAll(urls, 3)
	if len(results) != len(urls) {
		t.Fatalf("results = %d, want %d", len(results), len(urls))
	}
	for i, res := range results {
		if res.URL != urls[i] {
			t.Errorf("result %d URL = %q, want %q (order must be preserved)", i, res.URL, urls[i])
		}
	}
	if results[1].Err == nil {
		t.Error("failing URL should carry its error")
	}
	for _, i := range []int{0, 2, 3} {
		if results[i].Err != nil {
			t.Errorf("result %d: unexpected error %v", i, results[i].Err)
		}
		want := "body:" + urls[i][len(srv.URL):]
		if got := string(results[i].Page.Body); got != want {
			t.Errorf("result %d body = %q, want %q", i, got, want)
		}
	}
}

// TestFetchAllConcurrency proves the pool actually overlaps requests and
// stays within its bound.
func TestFetchAllConcurrency(t *testing.T) {
	var inflight, peak atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		cur := inflight.Add(1)
		defer inflight.Add(-1)
		for {
			old := peak.Load()
			if cur <= old || peak.CompareAndSwap(old, cur) {
				break
			}
		}
		time.Sleep(20 * time.Millisecond)
		fmt.Fprint(w, "ok")
	}))
	defer srv.Close()

	const workers = 4
	urls := make([]string, 12)
	for i := range urls {
		urls[i] = fmt.Sprintf("%s/r%d", srv.URL, i)
	}
	start := time.Now()
	results := New(nil).FetchAll(urls, workers)
	elapsed := time.Since(start)
	for i, res := range results {
		if res.Err != nil {
			t.Fatalf("result %d: %v", i, res.Err)
		}
	}
	if p := peak.Load(); p < 2 {
		t.Errorf("peak concurrency = %d, want >= 2 (requests never overlapped)", p)
	} else if p > workers {
		t.Errorf("peak concurrency = %d, want <= %d", p, workers)
	}
	// 12 requests x 20ms serially is 240ms; four workers should finish
	// in roughly 60ms. Allow generous slack for CI machines.
	if elapsed > 200*time.Millisecond {
		t.Errorf("elapsed = %v, want well under the 240ms serial floor", elapsed)
	}
}

// TestFetchAllSerialFallback covers the workers==1 path and empty input.
func TestFetchAllSerialFallback(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprint(w, "ok")
	}))
	defer srv.Close()
	f := New(nil)
	results := f.FetchAll([]string{srv.URL + "/x", srv.URL + "/y"}, 1)
	for i, res := range results {
		if res.Err != nil || string(res.Page.Body) != "ok" {
			t.Fatalf("result %d = %+v", i, res)
		}
	}
	if got := f.FetchAll(nil, 0); len(got) != 0 {
		t.Fatalf("empty input should yield empty results, got %d", len(got))
	}
}

// TestFetchAllSharedFetcherRace exercises one Fetcher from many
// concurrent batches (the -race guard for the shared client/jar path).
func TestFetchAllSharedFetcherRace(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprint(w, "ok")
	}))
	defer srv.Close()
	f := New(nil)
	urls := []string{srv.URL + "/1", srv.URL + "/2", srv.URL + "/3"}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f.FetchAll(urls, 3)
		}()
	}
	wg.Wait()
}
