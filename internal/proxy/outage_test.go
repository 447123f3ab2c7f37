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
	"msite/internal/session"
)

// TestOutageRow is the count-based row of the breaker and retry tier: N
// new devices in a row ask for the entry while the origin answers 503 to
// everything. No device has a previous view to fall back on, so each gets
// a 502 however the tier is set; what the tier changes is how many
// requests the failing origin receives. The rows go to the CI summary.
func TestOutageRow(t *testing.T) {
	const devices = 20
	t.Logf("| origin outage, %d new devices: breakers | retries | origin requests | 502s |", devices)
	t.Logf("|---|---|---|---|")
	for _, breakers := range []bool{true, false} {
		for _, retries := range []int{0, 2} {
			var originHits atomic.Int64
			originSrv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				originHits.Add(1)
				http.Error(w, "down", http.StatusServiceUnavailable)
			}))
			opts := []fetch.Option{fetch.WithRetries(retries), fetch.WithBackoff(time.Millisecond, time.Millisecond)}
			if breakers {
				opts = append(opts, fetch.WithBreaker(fetch.NewBreakerSet(fetch.BreakerConfig{})))
			}
			sessions, err := session.NewManager(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			p, err := New(Config{
				Spec:         forumSpec(originSrv.URL),
				Sessions:     sessions,
				Cache:        cache.New(),
				FetchOptions: opts,
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
			t.Logf("| %s | %d | %d | %d |", map[bool]string{true: "on", false: "off"}[breakers], retries, hits, gateway)
			if gateway != devices {
				t.Errorf("breakers=%v retries=%d: %d of %d new devices got 502", breakers, retries, gateway, devices)
			}
			if breakers && hits > fetch.DefaultBreakerThreshold {
				t.Errorf("breakers on, retries=%d: %d origin requests, want at most %d",
					retries, hits, fetch.DefaultBreakerThreshold)
			}
			if want := int64(devices * (1 + retries)); !breakers && hits != want {
				t.Errorf("breakers off, retries=%d: %d origin requests, want %d", retries, hits, want)
			}
		}
	}
}
