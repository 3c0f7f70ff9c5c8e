package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans are recorded from the
// benchmark's side of each call, never from inside the program, so the
// untraced run executes exactly the code a user runs.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root
	Name   string `json:"name"`
	// Iter is the iteration (engine workloads, serve-saturate) or cycle
	// (serve-paced) the span belongs to: spans of one request share it.
	Iter    int   `json:"iter"`
	StartNs int64 `json:"start_ns"` // since the tracer was created
	EndNs   int64 `json:"end_ns"`
}

// tracer keeps spans in memory until the workload ends. A nil tracer
// records nothing, which is how the untraced run pays nothing.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (-1 on a nil tracer).
func (t *tracer) begin(name string, parent, iter int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Iter: iter, StartNs: now, EndNs: now})
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].EndNs = now
	t.mu.Unlock()
}

// add records a span whose bounds were measured elsewhere: phases
// synthesised from RunStats are laid end to end inside their parent.
func (t *tracer) add(name string, parent, iter int, startNs, durNs int64) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Iter: iter, StartNs: startNs, EndNs: startNs + durNs})
	t.mu.Unlock()
	return id
}

func (t *tracer) start(id int) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[id].StartNs
}

// selfNanos sums, per span name, each span's duration minus the time its
// children cover.
func (t *tracer) selfNanos() map[string]int64 {
	out := make(map[string]int64)
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.EndNs - s.StartNs
		}
	}
	for _, s := range t.spans {
		self := s.EndNs - s.StartNs - child[s.ID]
		if self < 0 {
			self = 0
		}
		out[s.Name] += self
	}
	return out
}

// traceFile is the layout of trace-<workload>.json.
type traceFile struct {
	Host     string             `json:"host"`
	Workload string             `json:"workload"`
	Seed     uint64             `json:"seed"`
	SelfNs   map[string]int64   `json:"self_ns"`
	Detail   map[string]float64 `json:"detail,omitempty"` // rows too many or too variable to be metrics
	Spans    []span             `json:"spans"`
}

func (t *tracer) write(dir, workload string, seed uint64, detail map[string]float64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	self := t.selfNanos()
	t.mu.Lock()
	raw, err := json.Marshal(traceFile{
		Host: hostFingerprint(), Workload: workload, Seed: seed,
		SelfNs: self, Detail: detail, Spans: t.spans,
	})
	t.mu.Unlock()
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	return path, os.WriteFile(path, raw, 0o644)
}
