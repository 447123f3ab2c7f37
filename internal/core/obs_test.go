package core

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/cookiejar"
	"net/http/httptest"
	"strings"
	"testing"

	"msite/internal/obs"
	"msite/internal/spec"
)

// TestMetricsEndpointMounted drives the adaptation pipeline through the
// metrics-mounted handler and checks the mounted observability surface
// end to end: the X-MSite-Trace response header, /metrics (both
// formats), /debug/traces and /debug/pprof.
func TestMetricsEndpointMounted(t *testing.T) {
	fw, _ := newFramework(t)
	srv := httptest.NewServer(fw.HandlerWithMetrics())
	defer srv.Close()

	jar, err := cookiejar.New(nil)
	if err != nil {
		t.Fatal(err)
	}
	client := &http.Client{Jar: jar}
	resp, err := client.Get(srv.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("entry page status = %d", resp.StatusCode)
	}
	traceID := resp.Header.Get("X-MSite-Trace")
	if len(traceID) != 16 {
		t.Fatalf("X-MSite-Trace = %q, want a 16-char trace ID", traceID)
	}

	// Prometheus text exposition.
	resp, err = client.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type = %q", ct)
	}
	body := string(raw)
	for _, want := range []string{
		"# TYPE msite_proxy_requests_total counter",
		`msite_proxy_requests_total{handler="entry",site="forum"} 1`,
		"# TYPE msite_stage_seconds histogram",
		`msite_stage_seconds_bucket{stage="fetch",le="+Inf"} 1`,
		"msite_cache_fills_total",
		"msite_sessions_live",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("exposition missing %q:\n%s", want, body)
		}
	}

	// JSON negotiation through the same mount.
	resp, err = client.Get(srv.URL + "/metrics?format=json")
	if err != nil {
		t.Fatal(err)
	}
	var snap obs.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if h, ok := snap.Histogram("msite_http_request_seconds", "handler", "entry"); !ok || h.Count != 1 {
		t.Fatalf("request histogram = %+v ok=%v", h, ok)
	}

	// The trace surface shows the request's pipeline spans.
	resp, err = client.Get(srv.URL + "/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	var payload struct {
		Traces []obs.TraceRecord `json:"traces"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&payload); err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	var entry *obs.TraceRecord
	for i := range payload.Traces {
		if payload.Traces[i].Name == "entry" {
			entry = &payload.Traces[i]
		}
	}
	if entry == nil {
		t.Fatalf("no entry trace in %+v", payload.Traces)
	}
	if len(entry.Spans) == 0 || entry.Attrs["session"] == "" {
		t.Fatalf("entry trace = %+v", entry)
	}
	if entry.ID != traceID {
		t.Fatalf("entry trace ID = %q, want the response header's %q", entry.ID, traceID)
	}

	// pprof is mounted on the same mux.
	resp, err = client.Get(srv.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/pprof/cmdline = %d", resp.StatusCode)
	}
}

// TestMultiMetricsShared asserts multi-site hosting funnels every site's
// metrics into one registry under per-site labels.
func TestMultiMetricsShared(t *testing.T) {
	_, originSrv := newFramework(t) // reuse the origin only
	spA := testSpec(originSrv.URL)
	spB := testSpec(originSrv.URL)
	spA.Name = "alpha"
	spB.Name = "beta"
	mf, err := NewMulti([]*spec.Spec{spA, spB}, Config{SessionRoot: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(mf.HandlerWithMetrics())
	defer srv.Close()

	jar, err := cookiejar.New(nil)
	if err != nil {
		t.Fatal(err)
	}
	client := &http.Client{Jar: jar}
	for _, path := range []string{"/p/alpha/", "/p/beta/"} {
		resp, err := client.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		_ = resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s = %d", path, resp.StatusCode)
		}
	}

	snap := mf.Obs().Snapshot()
	for _, site := range []string{"alpha", "beta"} {
		if c, ok := snap.Counter("msite_proxy_requests_total", "handler", "entry", "site", site); !ok || c.Value != 1 {
			t.Fatalf("site %s entry counter = %+v ok=%v", site, c, ok)
		}
	}
}
