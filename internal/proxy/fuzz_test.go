package proxy

import (
	"bytes"
	"context"
	"encoding/gob"
	"net/http/httptest"
	"testing"

	"msite/internal/fetch"
	"msite/internal/origin"
)

// FuzzDecodeBundle holds decodeBundle to two rules over any stored
// record: it never panics, and a Bundle it accepts has a main page.
// The seeds are a cold forum build's record and a version-1 record.
func FuzzDecodeBundle(f *testing.F) {
	site, b := coldForumBundle(f)
	record, err := encodeBundle(site, b)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(record)
	var v1 bytes.Buffer
	old := v1Bundle()
	if err := gob.NewEncoder(&v1).Encode(&old); err != nil {
		f.Fatal(err)
	}
	f.Add(v1.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := decodeBundle(data)
		if err == nil && b.pages[mainPage] == nil {
			t.Fatal("accepted a bundle without a main page")
		}
	})
}

// coldForumBundle runs one cold build of the forum spec against a
// fresh forum origin and returns the site name and the Bundle.
func coldForumBundle(tb testing.TB) (string, *Bundle) {
	tb.Helper()
	originSrv := httptest.NewServer(origin.NewForum(origin.DefaultForumConfig()).Handler())
	defer originSrv.Close()
	sp := forumSpec(originSrv.URL)
	opts, err := newBuildOptions(Config{Spec: sp}, "")
	if err != nil {
		tb.Fatal(err)
	}
	b, _, err := build(context.Background(), fetch.New(nil), sp, &opts)
	if err != nil {
		tb.Fatal(err)
	}
	return sp.Name, b
}
