package spec

import (
	"bytes"
	"os"
	"testing"
)

// FuzzSpecParse: Parse must never panic, and whatever it accepts must
// re-encode to a spec Parse accepts again with the identical encoding.
func FuzzSpecParse(f *testing.F) {
	example, err := os.ReadFile("../../docs/spec-example.json")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(example)
	valid, err := validSpec().JSON()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add([]byte(`{"name":"x","origin":"http://o/","objects":[{"name":"a","xpath":"//p","attributes":[{"type":"repair"}]}]}`))
	f.Add([]byte(`{"version":2}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		sp, err := Parse(data)
		if err != nil {
			return
		}
		first, err := sp.JSON()
		if err != nil {
			t.Fatalf("accepted spec does not encode: %v", err)
		}
		again, err := Parse(first)
		if err != nil {
			t.Fatalf("re-encoded spec refused: %v\n%s", err, first)
		}
		second, err := again.JSON()
		if err != nil {
			t.Fatalf("re-parsed spec does not encode: %v", err)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("encoding not stable:\n%s\n---\n%s", first, second)
		}
	})
}
