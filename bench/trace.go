package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. Times are nanoseconds since the
// tracer started; Parent is the index of the span that caused this one
// (-1 for a root); spans of one view share View.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	View   int    `json:"view"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how the untraced run and the overhead comparison
// switch it off.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	// notes are timings in ms that are points inside a span, not spans.
	notes map[string][]float64
}

func newTracer() *tracer { return &tracer{t0: time.Now(), notes: make(map[string][]float64)} }

// note records one sample of a named timing.
func (t *tracer) note(name string, ms float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.notes[name] = append(t.notes[name], ms)
}

// begin opens a span and returns its index.
func (t *tracer) begin(name string, parent, view int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, Parent: parent, View: view})
	return len(t.spans) - 1
}

// end closes span id; name, when not empty, replaces the span's name
// (an asset request is a 200 or a 304 only once it has been answered).
func (t *tracer) end(id int, name string) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = now
	if name != "" {
		t.spans[id].Name = name
	}
}

// snapshot copies the spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes is each span's duration minus the part of its interval that
// its child spans cover (overlapping children are counted once).
func selfTimes(spans []span) []int64 {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 && s.Parent < len(spans) {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		var covered int64
		cursor := s.Start
		for _, k := range kids {
			start, end := spans[k].Start, spans[k].End
			if start < cursor {
				start = cursor
			}
			if end > s.End {
				end = s.End
			}
			if end > start {
				covered += end - start
				cursor = end
			}
		}
		out[i] = s.End - s.Start - covered
	}
	return out
}

// selfByName groups self times, in milliseconds, by span name.
func selfByName(spans []span) map[string][]float64 {
	self := selfTimes(spans)
	out := make(map[string][]float64)
	for i, s := range spans {
		out[s.Name] = append(out[s.Name], float64(self[i])/1e6)
	}
	return out
}

func writeTrace(path string, spans []span) error {
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func readTrace(path string) ([]span, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spans []span
	return spans, json.Unmarshal(data, &spans)
}
