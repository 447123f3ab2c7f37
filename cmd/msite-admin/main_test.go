package main

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"msite/internal/html"
	"msite/internal/origin"
	"msite/internal/xpath"
)

func forumServer(t *testing.T) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(origin.NewForum(origin.DefaultForumConfig()).Handler())
	t.Cleanup(srv.Close)
	return srv
}

func runArgs(t *testing.T, args ...string) (string, error) {
	t.Helper()
	var out bytes.Buffer
	err := run(args, &out)
	return out.String(), err
}

func TestInspectListsLoginForm(t *testing.T) {
	srv := forumServer(t)
	out, err := runArgs(t, "inspect", srv.URL+"/")
	if err != nil {
		t.Fatal(err)
	}
	region := regexp.MustCompile(`(?m)^#loginform\s+\d+,\d+ [1-9]\d*x[1-9]\d*\s+visual\b`)
	if !region.MatchString(out) {
		t.Fatalf("no #loginform row with a region:\n%s", out)
	}
}

func TestDepsResolve(t *testing.T) {
	srv := forumServer(t)
	out, err := runArgs(t, "deps", srv.URL+"/", "#loginform")
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if lines[0] != "dependencies of #loginform:" || len(lines) < 2 {
		t.Fatalf("no dependencies listed:\n%s", out)
	}
	resp, err := http.Get(srv.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	var page bytes.Buffer
	if _, err := page.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	doc := html.Tidy(page.String())
	for _, l := range lines[1:] {
		path := strings.TrimSpace(l)
		if n := len(xpath.MustCompile(path).Select(doc)); n != 1 {
			t.Errorf("dependency %s selects %d nodes, want 1", path, n)
		}
	}
}

func TestValidate(t *testing.T) {
	out, err := runArgs(t, "validate", "../../docs/spec-example.json")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(out, `spec "sawdust" valid`) {
		t.Fatalf("validate printed %q", out)
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	spec := `{"name":"x","origin":"http://o/","objects":[{"name":"a","selector":"#a","attributes":[{"type":"nope"}]}]}`
	if err := os.WriteFile(bad, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := runArgs(t, "validate", bad); err == nil || !strings.Contains(err.Error(), "unknown attribute") {
		t.Fatalf("bad spec: err = %v", err)
	}
}

// TestExamplePinsDoc holds docs/spec-example.json to what the example
// subcommand prints.
func TestExamplePinsDoc(t *testing.T) {
	out, err := runArgs(t, "example", "http://placeholder.invalid")
	if err != nil {
		t.Fatal(err)
	}
	doc, err := os.ReadFile("../../docs/spec-example.json")
	if err != nil {
		t.Fatal(err)
	}
	if out != string(doc) {
		t.Fatalf("docs/spec-example.json differs from `msite-admin example`:\n%s", out)
	}
}

// TestOversizedPageRefused serves a page past the fetcher's 16 MiB body
// cap: the tool must refuse it rather than read it whole.
func TestOversizedPageRefused(t *testing.T) {
	chunk := bytes.Repeat([]byte("a"), 1<<20)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/html")
		if _, err := w.Write([]byte("<!--")); err != nil {
			return
		}
		for range 17 {
			if _, err := w.Write(chunk); err != nil {
				return
			}
		}
	}))
	defer srv.Close()
	if _, err := runArgs(t, "inspect", srv.URL+"/"); err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("oversized page: err = %v", err)
	}
}
