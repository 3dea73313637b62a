package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// a public function; nothing inside the program is instrumented.
type span struct {
	Name string `json:"name"`
	// Trace groups the spans of one operation (a grid cell or a request).
	Trace int `json:"trace"`
	// Parent is the index of the enclosing span, -1 for a root.
	Parent int `json:"parent"`
	// Start and End are offsets from the tracer's creation.
	Start time.Duration `json:"start_ns"`
	End   time.Duration `json:"end_ns"`
	// Attrs label the operation (approach, model, stage, class).
	Attrs map[string]string `json:"attrs,omitempty"`
}

// tracer keeps spans in memory; they are written out once, at the end.
// It is used from one goroutine.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its index for end and for children.
func (t *tracer) begin(name string, trace, parent int, attrs map[string]string) int {
	t.spans = append(t.spans, span{Name: name, Trace: trace, Parent: parent,
		Start: time.Since(t.t0), Attrs: attrs})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) { t.spans[i].End = time.Since(t.t0) }

// record adds an already-measured span, for phases timed by a caller.
func (t *tracer) record(name string, trace, parent int, start, end time.Time, attrs map[string]string) int {
	t.spans = append(t.spans, span{Name: name, Trace: trace, Parent: parent,
		Start: start.Sub(t.t0), End: end.Sub(t.t0), Attrs: attrs})
	return len(t.spans) - 1
}

// selfTimes returns each span's duration minus the part of its interval
// covered by its children's spans.
func (t *tracer) selfTimes() []time.Duration {
	children := make([][]int, len(t.spans))
	for i, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return t.spans[kids[a]].Start < t.spans[kids[b]].Start })
		covered := time.Duration(0)
		cursor := s.Start
		for _, k := range kids {
			start, end := t.spans[k].Start, t.spans[k].End
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
		self[i] = s.End - s.Start - covered
	}
	return self
}

// write stores the spans as JSON under dir, named for the run.
func (t *tracer) write(dir, workload string, seed int64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("trace dir: %w", err)
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", workload, seed))
	data, err := json.Marshal(t.spans)
	if err != nil {
		return "", fmt.Errorf("encoding spans: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", fmt.Errorf("writing spans: %w", err)
	}
	return path, nil
}
