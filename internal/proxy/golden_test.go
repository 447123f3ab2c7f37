package proxy

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"net/http/httptest"
	"os"
	"sort"
	"strings"
	"testing"

	"msite/internal/fetch"
	"msite/internal/origin"
)

// goldenOrigin stands in for the test origin's address in hashed
// artifacts, so the hashes do not depend on the port it listens on.
const goldenOrigin = "http://origin.invalid"

// The directories the golden listing files a Bundle's pages and assets
// under.
const (
	pagesDir  = "pages"
	assetsDir = "images"
)

// TestBuildArtifactsMatchGolden pins every artifact a cold build of the
// evaluation spec makes — each page and asset of its Bundle and the entry
// snapshot rendered from it — to the SHA-256 in testdata/artifacts.sha256,
// with the origin's address replaced by goldenOrigin. A change to how a
// build fetches, orders or decodes its inputs must leave every line as it
// is. A change that means to move an artifact re-cuts the file from the
// listing this test prints when it fails.
func TestBuildArtifactsMatchGolden(t *testing.T) {
	forum := origin.NewForum(origin.DefaultForumConfig())
	originSrv := httptest.NewServer(forum.Handler())
	t.Cleanup(originSrv.Close)
	sp := forumSpec(originSrv.URL)
	evaluationSpec(sp)
	opts, err := newBuildOptions(Config{Spec: sp}, "")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	b, _, err := build(ctx, fetch.New(nil), sp, &opts)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := renderSnapshot(ctx, b, viewportWidth(sp, 0), snapshotFidelity(sp), snapshotScale(sp))
	if err != nil {
		t.Fatal(err)
	}

	files := make(map[string][]byte)
	for name, a := range b.pages {
		files[pagesDir+"/"+name] = a.data
	}
	for name, a := range b.assets {
		files[assetsDir+"/"+name] = a.data
	}
	files[assetsDir+"/snapshot"+snapshotFidelity(sp).Ext()] = snap.Data
	var lines []string
	for path, data := range files {
		data = bytes.ReplaceAll(data, []byte(originSrv.URL), []byte(goldenOrigin))
		lines = append(lines, fmt.Sprintf("%x  %s", sha256.Sum256(data), path))
	}
	sort.Slice(lines, func(i, j int) bool { return lines[i][2*sha256.Size:] < lines[j][2*sha256.Size:] })
	got := strings.Join(lines, "\n") + "\n"

	want, err := os.ReadFile("testdata/artifacts.sha256")
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("build artifacts moved from testdata/artifacts.sha256:\n got\n%s\nwant\n%s", got, want)
	}
}
