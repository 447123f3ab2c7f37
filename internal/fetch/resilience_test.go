package fetch

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"msite/internal/obs"
)

func TestGetRetriesTransientFailures(t *testing.T) {
	var hits atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		if hits.Add(1) < 3 {
			http.Error(w, "flaky", http.StatusBadGateway)
			return
		}
		_, _ = w.Write([]byte("recovered"))
	}))
	defer srv.Close()

	reg := obs.NewRegistry()
	f := New(nil, WithRetries(4), WithBackoff(time.Millisecond, 4*time.Millisecond), WithObs(reg))
	page, err := f.Get(srv.URL)
	if err != nil || string(page.Body) != "recovered" {
		t.Fatalf("get = %v %q", err, page.Body)
	}
	if got := hits.Load(); got != 3 {
		t.Fatalf("origin hits = %d, want 3", got)
	}
	if c, ok := reg.Snapshot().Counter("msite_fetch_retries_total"); !ok || c.Value != 2 {
		t.Fatalf("retries counter = %+v ok=%v", c, ok)
	}
}

func TestGetDoesNotRetryClientErrors(t *testing.T) {
	var hits atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		hits.Add(1)
		http.Error(w, "nope", http.StatusNotFound)
	}))
	defer srv.Close()

	f := New(nil, WithRetries(3), WithBackoff(time.Millisecond, time.Millisecond))
	_, err := f.Get(srv.URL)
	var fe *Error
	if !errors.As(err, &fe) || fe.Kind != KindStatus || fe.Status != 404 {
		t.Fatalf("err = %v", err)
	}
	// Legacy StatusError remains reachable for existing callers.
	var se *StatusError
	if !errors.As(err, &se) || se.Status != 404 {
		t.Fatalf("StatusError not wrapped: %v", err)
	}
	if got := hits.Load(); got != 1 {
		t.Fatalf("origin hits = %d, want 1 (no retry on 4xx)", got)
	}
}

func TestErrorClassification(t *testing.T) {
	// Refused: a port with no listener.
	srv := httptest.NewServer(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {}))
	dead := srv.URL
	srv.Close()
	_, err := New(nil).Get(dead)
	var fe *Error
	if !errors.As(err, &fe) {
		t.Fatalf("err = %T %v", err, err)
	}
	if fe.Kind != KindRefused {
		t.Fatalf("kind = %q, want refused", fe.Kind)
	}
	if !Retryable(err) {
		t.Fatal("refused should be retryable")
	}

	// Timeout: a handler slower than the client deadline.
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-time.After(2 * time.Second):
		case <-r.Context().Done():
		}
	}))
	defer slow.Close()
	_, err = New(nil, WithTimeout(20*time.Millisecond)).Get(slow.URL)
	if !errors.As(err, &fe) || fe.Kind != KindTimeout {
		t.Fatalf("timeout err = %v", err)
	}
}

// TestFailingHostRetries runs GETs and POSTs in turn against one origin
// whose answer each step sets, and counts the requests each step makes.
// A GET that fails on every attempt leaves its host one attempt and no
// retries until the host answers; any answer but a retryable failure
// gives them back; a POST is never retried and marks no host failing.
func TestFailingHostRetries(t *testing.T) {
	type step struct {
		method string
		status int   // what the origin answers
		hits   int32 // origin requests the step must make
	}
	cases := []struct {
		name  string
		steps []step
	}{
		{"a GET failed on every attempt leaves one", []step{
			{"GET", 503, 3}, {"GET", 503, 1}, {"GET", 503, 1},
		}},
		{"a 4xx gives the retries back", []step{
			{"GET", 503, 3}, {"GET", 404, 1}, {"GET", 503, 3},
		}},
		{"a 2xx gives the retries back", []step{
			{"GET", 503, 3}, {"GET", 200, 1}, {"GET", 503, 3},
		}},
		{"a 429 is no answer", []step{
			{"GET", 503, 3}, {"GET", 429, 1}, {"GET", 503, 1},
		}},
		{"a POST is never retried", []step{
			{"POST", 503, 1}, {"GET", 503, 3}, {"POST", 503, 1}, {"POST", 200, 1}, {"GET", 503, 3},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var status, hits atomic.Int32
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
				hits.Add(1)
				w.WriteHeader(int(status.Load()))
			}))
			defer srv.Close()
			t.Cleanup(func() { failing.forget(srv.Listener.Addr().String()) })
			f := New(nil, WithRetries(2), WithBackoff(time.Millisecond, time.Millisecond))
			for i, st := range tc.steps {
				status.Store(int32(st.status))
				hits.Store(0)
				var err error
				if st.method == http.MethodPost {
					_, err = f.PostForm(srv.URL, nil)
				} else {
					_, err = f.Get(srv.URL)
				}
				if (err == nil) != (st.status == 200) {
					t.Fatalf("step %d: %s answered %d: err %v", i, st.method, st.status, err)
				}
				if got := hits.Load(); got != st.hits {
					t.Fatalf("step %d: %s answered %d made %d origin requests, want %d", i, st.method, st.status, got, st.hits)
				}
			}
		})
	}
}

// TestFailingHostsCapped: several fetchers' worth of goroutines mark
// more hosts failing than the table holds. It fills to maxFailingHosts and
// no further, and forgetting the hosts empties it of them again.
func TestFailingHostsCapped(t *testing.T) {
	const workers = 4
	size := func() int {
		failing.mu.Lock()
		defer failing.mu.Unlock()
		if n := int(failing.n.Load()); n != len(failing.hosts) {
			t.Fatalf("n = %d, table holds %d", n, len(failing.hosts))
		}
		return len(failing.hosts)
	}
	var hosts []string
	for i := 0; i < maxFailingHosts+10*workers; i++ {
		hosts = append(hosts, "failing-"+strconv.Itoa(i)+".example")
	}
	each := func(do func(host string)) {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < len(hosts); i += workers {
					do(hosts[i])
				}
			}(w)
		}
		wg.Wait()
	}
	before := size()
	each(func(host string) {
		failing.add(host)
		failing.has(host)
	})
	if got := size(); got != maxFailingHosts {
		t.Fatalf("table holds %d hosts, cap %d", got, maxFailingHosts)
	}
	if failing.add("one-more.example"); failing.has("one-more.example") {
		t.Fatal("a host was remembered past the cap")
	}
	each(failing.forget)
	if got := size(); got != before {
		t.Fatalf("forgetting every host left %d, want the %d from before", got, before)
	}
}

// TestBodyOverLimitIsTooLarge: a body one byte over the limit fails, on
// GET and POST alike, with a too_large error that is neither retried nor
// held against the origin, where it used to come back cut to the limit
// with no error; a body of exactly the limit is fetched whole.
func TestBodyOverLimitIsTooLarge(t *testing.T) {
	body := make([]byte, maxBodyBytes+1)
	var hits atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		n := maxBodyBytes
		if r.URL.Path == "/over" {
			n++
		}
		_, _ = w.Write(body[:n])
	}))
	defer srv.Close()

	f := New(nil, WithRetries(3), WithBackoff(time.Millisecond, time.Millisecond))
	fetches := map[string]func(url string) (*Page, error){
		"GET":  f.Get,
		"POST": func(url string) (*Page, error) { return f.PostForm(url, nil) },
	}
	for method, fetch := range fetches {
		hits.Store(0)
		page, err := fetch(srv.URL + "/over")
		var fe *Error
		if !errors.As(err, &fe) || fe.Kind != KindTooLarge || page != nil {
			t.Fatalf("%s of %d bytes: page %v, err %v; want a too_large error", method, maxBodyBytes+1, page != nil, err)
		}
		if Retryable(err) || hits.Load() != 1 {
			t.Fatalf("%s: too_large retried (%d origin hits)", method, hits.Load())
		}
		if failing.has(fe.Origin) {
			t.Fatalf("%s: too_large marked %s failing", method, fe.Origin)
		}
		page, err = fetch(srv.URL + "/limit")
		if err != nil || len(page.Body) != maxBodyBytes {
			t.Fatalf("%s of %d bytes: err %v", method, maxBodyBytes, err)
		}
	}
}
