package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer. Spans of one operation share a
// request id; parent is the index of the enclosing span, -1 for a root.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Req    int64  `json:"req"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced mode: every method is a no-op. Spans are recorded from one
// goroutine.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) since(at time.Time) int64 { return int64(at.Sub(t.epoch)) }

// begin opens a span and returns its index (-1 when untraced).
func (t *tracer) begin(name string, parent int, req int64) int {
	if t == nil {
		return -1
	}
	now := t.since(time.Now())
	t.spans = append(t.spans, span{Name: name, Start: now, End: now, Parent: parent, Req: req})
	return len(t.spans) - 1
}

// end closes span i.
func (t *tracer) end(i int) {
	if t == nil || i < 0 {
		return
	}
	t.spans[i].End = t.since(time.Now())
}

// completed records a span reported after the fact, as core.Request's
// Observe hook does: it ended now and lasted d. Earlier spans under the
// same parent whose midpoint lies inside it become its children, because
// a stage is reported only after the stages nested in it. (The midpoint,
// not the start, because the reported interval starts a little late.)
func (t *tracer) completed(name string, d time.Duration, parent int, req int64) {
	if t == nil {
		return
	}
	end := t.since(time.Now())
	start := end - int64(d)
	idx := len(t.spans)
	for i := idx - 1; i > parent; i-- {
		s := &t.spans[i]
		if mid := (s.Start + s.End) / 2; s.Req == req && s.Parent == parent && mid >= start && mid <= end {
			s.Parent = idx
		}
	}
	t.spans = append(t.spans, span{Name: name, Start: start, End: end, Parent: parent, Req: req})
}

// selfTimes sums, per span name, each span's duration minus the part
// its direct children cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	self := map[string]time.Duration{}
	for i, s := range t.spans {
		self[s.Name] += time.Duration(s.End - s.Start - child[i])
	}
	return self
}

// write stores the spans as JSON lines and returns the file's path.
func (t *tracer) write(cfg config) (string, error) {
	if err := os.MkdirAll(cfg.traceDir, 0o755); err != nil {
		return "", fmt.Errorf("trace dir: %w", err)
	}
	path := filepath.Join(cfg.traceDir, fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed))
	f, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("trace file: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", fmt.Errorf("trace file: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", fmt.Errorf("trace file: %w", err)
	}
	return path, f.Close()
}
