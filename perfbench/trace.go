package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// traceDir is where traced runs write their spans, relative to the
// repository root the benchmark runs from (inside its build directory).
const traceDir = ".bench_build/perfbench-traces"

// span is one timed call across a layer boundary. Parent 0 is a root. Child
// is the part of the span spent in a lower layer that has no spans of its
// own (ring arithmetic under sim.Apply), so self time is End−Start−Child
// minus the covered part of any child spans.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Child  int64  `json:"child_ns,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing. It accounts the time its own calls take, which is the traced
// run's overhead where spans are read off timestamps the program already
// returns.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	cost  time.Duration
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span now and returns its id.
func (t *tracer) begin(parent int, name string) int {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: now})
	return len(t.spans)
}

// end closes span id now, recording child time spent in untraced lower
// layers.
func (t *tracer) end(id int, child time.Duration) {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
	t.spans[id-1].Child = child.Nanoseconds()
}

// add records an already-finished span with absolute times.
func (t *tracer) add(parent int, name string, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t0 := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
	t.cost += time.Since(t0)
	return len(t.spans)
}

// spent returns the time add calls took.
func (t *tracer) spent() time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.cost
}

// writeFile writes the spans as JSON lines and returns the file's path.
func (t *tracer) writeFile(workload string, seed int64) (string, error) {
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(traceDir, fmt.Sprintf("%s-seed%d.jsonl", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		return "", err
	}
	return path, f.Close()
}
