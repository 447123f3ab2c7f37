package proxy

import (
	"bytes"
	"context"
	"net/http/httptest"
	"testing"

	"msite/internal/fetch"
	"msite/internal/origin"
)

// FuzzDecodeBundle holds decodeBundle to its rules over any stored
// record: it never panics, a Bundle it accepts has a main page, and an
// accepted record is canonical. One with no images encodes back to
// itself; one with images may differ in the bytes the PNG encoder writes,
// so its re-encoding must encode back to itself. The seeds are the
// evaluation build's record and roundTripBundle's.
func FuzzDecodeBundle(f *testing.F) {
	for _, b := range []*Bundle{coldForumBundle(f), roundTripBundle()} {
		record, err := encodeBundle(b)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(record)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := decodeBundle(data)
		if err != nil {
			return
		}
		if b.pages[mainPage] == nil {
			t.Fatal("accepted a bundle without a main page")
		}
		again, err := encodeBundle(b)
		if err != nil {
			t.Fatalf("an accepted record does not encode: %v", err)
		}
		if len(b.images) == 0 {
			if !bytes.Equal(again, data) {
				t.Fatal("an accepted record without images does not encode back to itself")
			}
			return
		}
		b, err = decodeBundle(again)
		if err != nil {
			t.Fatalf("the re-encoded record does not decode: %v", err)
		}
		if third, err := encodeBundle(b); err != nil || !bytes.Equal(third, again) {
			t.Fatalf("re-encoding is not a fixed point (err %v)", err)
		}
	})
}

// coldForumBundle runs one cold build of the evaluation spec against a
// fresh forum origin and returns the Bundle.
func coldForumBundle(tb testing.TB) *Bundle {
	tb.Helper()
	originSrv := httptest.NewServer(origin.NewForum(origin.DefaultForumConfig()).Handler())
	defer originSrv.Close()
	sp := forumSpec(originSrv.URL)
	evaluationSpec(sp)
	opts, err := newBuildOptions(Config{Spec: sp}, "")
	if err != nil {
		tb.Fatal(err)
	}
	b, _, err := build(context.Background(), fetch.New(nil), sp, &opts)
	if err != nil {
		tb.Fatal(err)
	}
	return b
}
