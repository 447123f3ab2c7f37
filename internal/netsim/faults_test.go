package netsim

import (
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
)

func okHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		_, _ = w.Write([]byte("ok"))
	})
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		return 0, err.Error()
	}
	body, _ := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	return resp.StatusCode, string(body)
}

func TestInjectorDisabledPassesThrough(t *testing.T) {
	in := NewInjector(FaultConfig{ErrorRate: 1})
	in.SetEnabled(false)
	srv := httptest.NewServer(in.Wrap(okHandler()))
	defer srv.Close()
	for i := 0; i < 5; i++ {
		if status, body := get(t, srv.URL); status != 200 || body != "ok" {
			t.Fatalf("disabled injector: %d %q", status, body)
		}
	}
	if s := in.Stats(); s.Requests != 5 || s.Errors != 0 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestInjectorErrorRate(t *testing.T) {
	in := NewInjector(FaultConfig{ErrorRate: 1, Seed: 1})
	srv := httptest.NewServer(in.Wrap(okHandler()))
	defer srv.Close()
	if status, _ := get(t, srv.URL); status != http.StatusServiceUnavailable {
		t.Fatalf("status = %d", status)
	}
	if s := in.Stats(); s.Errors != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestInjectorReset(t *testing.T) {
	in := NewInjector(FaultConfig{ResetRate: 1, Seed: 1})
	srv := httptest.NewServer(in.Wrap(okHandler()))
	defer srv.Close()
	if _, err := http.Get(srv.URL); err == nil {
		t.Fatal("reset produced a clean response")
	}
	if s := in.Stats(); s.Resets != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestInjectorForcedOutage(t *testing.T) {
	in := NewInjector(FaultConfig{})
	srv := httptest.NewServer(in.Wrap(okHandler()))
	defer srv.Close()
	if status, _ := get(t, srv.URL); status != 200 {
		t.Fatalf("healthy status = %d", status)
	}
	in.SetDown(true)
	if status, _ := get(t, srv.URL); status != http.StatusServiceUnavailable {
		t.Fatalf("outage status = %d", status)
	}
	in.SetDown(false)
	if status, _ := get(t, srv.URL); status != 200 {
		t.Fatalf("recovered status = %d", status)
	}
	if s := in.Stats(); s.FlapRejects != 1 {
		t.Fatalf("stats = %+v", s)
	}
}
