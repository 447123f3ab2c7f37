package attr_test

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestRuntimeAgreesWithLookup runs the search payload the forums subpage
// ships under node and asks its msiteSearch for every indexed word, as
// typed, in capitals and wrapped in punctuation, and for words the page
// does not hold: each answer is the boxes Lookup returns. Skipped where
// node is not installed, except under CI, where it fails: it is the one
// check that the JavaScript a phone runs agrees with Lookup on a real page.
func TestRuntimeAgreesWithLookup(t *testing.T) {
	node, err := exec.LookPath("node")
	if err != nil {
		if os.Getenv("CI") != "" {
			t.Fatal("node is not on PATH: CI runs the device runtime")
		}
		t.Skip("node is not on PATH")
	}
	for _, seed := range []int64{42, 7} {
		idx := forumsIndex(t, seed) // idx.JS("msite-search") is the shipped payload
		queries := []string{"", "a", ",", "zzzz", "forumz", "\"\"", "Forums,", "(THREADS:)", "[posts]."}
		for _, word := range idx.Words() {
			queries = append(queries, word, strings.ToUpper(word), "("+word+"),", `"`+strings.ToUpper(word)+`!?`)
		}
		for _, c := range `.,;:!?"'()[]{}<>` {
			queries = append(queries, string(c)+idx.Words()[0]+string(c))
		}
		qs, err := json.Marshal(queries)
		if err != nil {
			t.Fatal(err)
		}
		script := filepath.Join(t.TempDir(), "search.js")
		src := "var document={getElementById:function(){return null}};\n" + idx.JS("msite-search") +
			"\nconsole.log(JSON.stringify(" + string(qs) + ".map(function(q){return msiteSearch(q)})));\n"
		if err := os.WriteFile(script, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
		out, err := exec.Command(node, script).Output()
		if err != nil {
			t.Fatalf("seed %d: node: %v", seed, err)
		}
		var got [][][4]int
		if err := json.Unmarshal(out, &got); err != nil || len(got) != len(queries) {
			t.Fatalf("seed %d: node printed %d answers for %d queries (%v)", seed, len(got), len(queries), err)
		}
		found := 0
		for i, q := range queries {
			want := [][4]int{}
			for _, h := range idx.Lookup(q) {
				want = append(want, [4]int{h.X, h.Y, h.W, h.H})
			}
			if !reflect.DeepEqual(got[i], want) {
				t.Fatalf("seed %d: msiteSearch(%q) = %v, Lookup gives %v", seed, q, got[i], want)
			}
			if len(want) > 0 {
				found++
			}
		}
		if found < 4*len(idx.Words()) {
			t.Fatalf("seed %d: %d of %d queries found their word", seed, found, len(queries))
		}
	}
}
