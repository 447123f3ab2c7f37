package search

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"testing"
)

// TestRuntimeDecodesEveryHit runs the device runtime under node over an
// index that holds what the forum page does not: two lines at one y, a
// hit on a line before the one of the word's previous hit, a hit left of
// it, negative and 30-bit coordinates. msiteSearch must answer every word
// with the boxes Lookup returns. Skipped where node is not installed,
// except under CI, where it fails.
func TestRuntimeDecodesEveryHit(t *testing.T) {
	node, err := exec.LookPath("node")
	if err != nil {
		if os.Getenv("CI") != "" {
			t.Fatal("node is not on PATH: CI runs the device runtime")
		}
		t.Skip("node is not on PATH")
	}
	idx := &Index{hits: []Hit{
		{"alpha", 0, 10, 5, 20}, {"alpha", 5, 10, 5, 12}, {"alpha", -7, 0, 1 << 30, 3},
		{"alpha", 40, 30, 5, 12}, {"alpha", 2, 30, 5, 12},
		{"beta", 9, 10, 5, 20}, {"beta", 9, 1 << 30, 5, 20}, {"beta", -(1 << 30), -4, 8, 0},
		{"x</script>", 1, 1, 1, 1}, {"ünïcödé", 3, 10, 5, 12},
	}}
	sortHits(idx.hits)
	queries := append(idx.Words(), "", "absent", "ALPHA", "(beta),")
	qs, err := json.Marshal(queries)
	if err != nil {
		t.Fatal(err)
	}
	script := filepath.Join(t.TempDir(), "search.js")
	src := idx.JS("") + "\nconsole.log(JSON.stringify(" + string(qs) + ".map(function(q){return msiteSearch(q)})));\n"
	if err := os.WriteFile(script, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := exec.Command(node, script).Output()
	if err != nil {
		t.Fatalf("node: %v", err)
	}
	var got [][][4]int
	if err := json.Unmarshal(out, &got); err != nil || len(got) != len(queries) {
		t.Fatalf("node printed %d answers for %d queries (%v)", len(got), len(queries), err)
	}
	for i, q := range queries {
		want := [][4]int{}
		for _, h := range idx.Lookup(q) {
			want = append(want, [4]int{h.X, h.Y, h.W, h.H})
		}
		if !reflect.DeepEqual(got[i], want) {
			t.Errorf("msiteSearch(%q) = %v, Lookup gives %v", q, got[i], want)
		}
	}
}
