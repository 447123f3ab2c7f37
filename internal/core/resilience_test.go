package core

import (
	"io"
	"net/http"
	"net/http/cookiejar"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"msite/internal/netsim"
	"msite/internal/origin"
)

// TestResilienceChaos is the whole-stack chaos run: a framework with
// retries, breakers and stale serving fronts an origin that answers
// 503s, resets connections and stalls past the fetch deadline, then goes
// dark. Every forced re-adaptation must still answer 200 — degraded or
// stale — with the breaker opening and stale adaptations served along
// the way, and once the storm is over the goroutines it started must be
// gone.
func TestResilienceChaos(t *testing.T) {
	forum := origin.NewForum(origin.DefaultForumConfig())
	injector := netsim.NewInjector(netsim.FaultConfig{
		ErrorRate:    0.5,
		ResetRate:    0.1,
		SpikeRate:    0.15,
		LatencySpike: 250 * time.Millisecond,
		Seed:         42,
	})
	injector.SetEnabled(false) // warm up against a healthy origin
	originSrv := httptest.NewServer(injector.Wrap(forum.Handler()))
	defer originSrv.Close()

	fw, err := New(testSpec(originSrv.URL), Config{
		SessionRoot:     t.TempDir(),
		FetchTimeout:    100 * time.Millisecond, // a 250 ms spike is a certain timeout
		FetchRetries:    1,
		BreakerCooldown: 300 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fw.Close()
	proxySrv := httptest.NewServer(fw.Handler())
	defer proxySrv.Close()

	jar, err := cookiejar.New(nil)
	if err != nil {
		t.Fatal(err)
	}
	client := &http.Client{Jar: jar, Timeout: time.Minute}
	get := func(path string) int {
		t.Helper()
		resp, err := client.Get(proxySrv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		_ = resp.Body.Close()
		return resp.StatusCode
	}
	if code := get("/"); code != http.StatusOK {
		t.Fatalf("warm-up status %d", code)
	}
	goroutinesBefore := runtime.NumGoroutine()

	// Chaos, then a blackout: consecutive failures must trip the breaker
	// while stale serving keeps answering.
	injector.SetEnabled(true)
	for i := 0; i < 8; i++ {
		if code := get("/?refresh=1"); code != http.StatusOK {
			t.Errorf("chaos request %d: status %d, want 200", i, code)
		}
	}
	injector.SetDown(true)
	for i := 0; i < 4; i++ {
		if code := get("/?refresh=1"); code != http.StatusOK {
			t.Errorf("blackout request %d: status %d, want 200", i, code)
		}
	}
	injector.SetDown(false)

	if injector.Stats().Errors == 0 {
		t.Fatal("injector answered no 503s; the run exercised nothing")
	}
	snap := fw.Obs().Snapshot()
	var opens, stale, retries uint64
	for _, c := range snap.Counters {
		switch c.Name {
		case "msite_proxy_stale_served_total":
			stale += c.Value
		case "msite_fetch_retries_total":
			retries += c.Value
		case "msite_breaker_transitions_total":
			for _, l := range c.Labels {
				if l.Key == "to" && l.Value == "open" {
					opens += c.Value
				}
			}
		}
	}
	if opens == 0 {
		t.Error("breaker never opened through the blackout")
	}
	if stale == 0 {
		t.Error("no stale adaptation served")
	}
	if retries == 0 {
		t.Error("no origin fetch was retried")
	}

	// Nothing may outlive the storm: stalled origin handlers finish their
	// spike, retries and background refreshes wind down, and only the
	// idle keep-alive connections both sides already held remain.
	client.CloseIdleConnections()
	const slack = 10
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > goroutinesBefore+slack && time.Now().Before(deadline) {
		time.Sleep(50 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > goroutinesBefore+slack {
		t.Errorf("goroutines grew %d -> %d after the storm", goroutinesBefore, after)
	}
}
