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
// retries and stale serving fronts an origin that answers 503s, resets
// connections and spikes past the fetch deadline, then goes dark. Every
// forced re-adaptation must still answer 200 — degraded or stale — with
// stale adaptations served along the way; through the blackout retries
// must not multiply the load on the dark origin; and once the storm is
// over the goroutines it started must be gone.
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
		SessionRoot:  t.TempDir(),
		FetchTimeout: 100 * time.Millisecond, // a 250 ms spike is a certain timeout
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

	// Chaos, then a blackout: stale serving keeps answering, and once a
	// GET has failed on every attempt the dark origin gets one attempt a
	// refresh, so the blackout's refreshes cost it at most one retried
	// GET and one request for each of the others.
	injector.SetEnabled(true)
	for i := 0; i < 8; i++ {
		if code := get("/?refresh=1"); code != http.StatusOK {
			t.Errorf("chaos request %d: status %d, want 200", i, code)
		}
	}
	const blackout = 4
	dark := injector.Stats().FlapRejects
	injector.SetDown(true)
	for i := 0; i < blackout; i++ {
		if code := get("/?refresh=1"); code != http.StatusOK {
			t.Errorf("blackout request %d: status %d, want 200", i, code)
		}
	}
	injector.SetDown(false)
	hits, most := injector.Stats().FlapRejects-dark, uint64(fetchRetries+blackout)
	t.Logf("%d blackout refreshes: %d origin requests, at most %d", blackout, hits, most)
	if hits > most {
		t.Errorf("%d blackout refreshes cost the dark origin %d requests, want at most %d", blackout, hits, most)
	}

	if injector.Stats().Errors == 0 {
		t.Fatal("injector answered no 503s; the run exercised nothing")
	}
	snap := fw.Obs().Snapshot()
	var stale, retries uint64
	for _, c := range snap.Counters {
		switch c.Name {
		case "msite_proxy_stale_served_total":
			stale += c.Value
		case "msite_fetch_retries_total":
			retries += c.Value
		}
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
