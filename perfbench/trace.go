package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// tracer records a span around every call the benchmark makes into a
// layer. Spans stay in memory until write. A nil tracer records nothing, so
// untraced passes pay one branch per call site.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int
}

type span struct {
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span as a child of the innermost open span and returns its
// id for end.
func (tr *tracer) begin(layer, name string) int {
	if tr == nil {
		return -1
	}
	parent := -1
	if n := len(tr.open); n > 0 {
		parent = tr.open[n-1]
	}
	tr.spans = append(tr.spans, span{Name: name, Layer: layer, Start: int64(time.Since(tr.t0)), Parent: parent})
	id := len(tr.spans) - 1
	tr.open = append(tr.open, id)
	return id
}

// end closes span id, which must be the innermost open one, and returns its
// duration (zero on a nil tracer).
func (tr *tracer) end(id int) time.Duration {
	if tr == nil {
		return 0
	}
	s := &tr.spans[id]
	s.End = int64(time.Since(tr.t0))
	tr.open = tr.open[:len(tr.open)-1]
	return time.Duration(s.End - s.Start)
}

// selfTimes returns each layer's self time: the duration of its spans minus
// the part their child spans cover.
func (tr *tracer) selfTimes() map[string]time.Duration {
	self := make(map[string]time.Duration)
	for _, s := range tr.spans {
		self[s.Layer] += time.Duration(s.End - s.Start)
		if s.Parent >= 0 {
			self[tr.spans[s.Parent].Layer] -= time.Duration(s.End - s.Start)
		}
	}
	return self
}

// write stores the spans as a JSON array.
func (tr *tracer) write(path string) error {
	data, err := json.Marshal(tr.spans)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
