package proxy

import (
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"msite/internal/cache"
	"msite/internal/fetch"
	"msite/internal/origin"
	"msite/internal/session"
)

// TestOutageRow is the count-based row of the retry tier: N new devices
// in a row ask for the entry while the origin fails, in an outage every
// request it receives and in a transient fault every third. No device has
// a previous view to fall back on, so a device whose entry fetch fails on
// every attempt gets a 502. In the outage every device does however the
// tier is set, and what retries change is how many requests the failing
// origin receives: the first device's GET fails on every attempt, after
// which each new device gets one attempt. In the transient fault retries
// are what keeps every device off a 502. The rows go to the CI summary.
func TestOutageRow(t *testing.T) {
	const devices = 20
	forum := origin.NewForum(origin.DefaultForumConfig()).Handler()
	t.Logf("| %d new devices: fault | retries | origin requests | 502s |", devices)
	t.Logf("|---|---|---|---|")
	for _, fault := range []struct {
		name string
		fail func(n int64) bool // whether the origin's nth request gets a 503
	}{
		{"outage", func(int64) bool { return true }},
		{"every 3rd request 503", func(n int64) bool { return n%3 == 0 }},
	} {
		for _, retries := range []int{0, 2} {
			var originHits atomic.Int64
			originSrv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if fault.fail(originHits.Add(1)) {
					http.Error(w, "down", http.StatusServiceUnavailable)
					return
				}
				forum.ServeHTTP(w, r)
			}))
			sessions, err := session.NewManager(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			p, err := New(Config{
				Spec:     forumSpec(originSrv.URL),
				Sessions: sessions,
				Cache:    cache.New(),
				FetchOptions: []fetch.Option{
					fetch.WithRetries(retries), fetch.WithBackoff(time.Millisecond, time.Millisecond),
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			proxySrv := httptest.NewServer(p)

			gateway := 0
			for i := 0; i < devices; i++ {
				resp, err := http.Get(proxySrv.URL + "/") // no cookie: a new device
				if err != nil {
					t.Fatal(err)
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				_ = resp.Body.Close()
				if resp.StatusCode == http.StatusBadGateway {
					gateway++
				}
			}
			proxySrv.Close()
			originSrv.Close()

			hits := originHits.Load()
			t.Logf("| %s | %d | %d | %d |", fault.name, retries, hits, gateway)
			outage := fault.name == "outage"
			if outage && gateway != devices {
				t.Errorf("outage, retries=%d: %d of %d new devices got 502, want all", retries, gateway, devices)
			}
			if outage && retries > 0 && hits > int64(devices+retries) {
				t.Errorf("outage, retries=%d: %d origin requests, want at most %d", retries, hits, devices+retries)
			}
			if !outage && retries > 0 && gateway != 0 {
				t.Errorf("%s, retries=%d: %d of %d new devices got 502, want none", fault.name, retries, gateway, devices)
			}
			if !outage && retries == 0 && gateway == 0 {
				t.Errorf("%s, retries=0: no device got a 502; the fault did nothing", fault.name)
			}
		}
	}
}
