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

// span is one timed layer call: its name, the span that caused it (0 for
// a root) and its interval relative to the tracer's start.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per boundary. Spans may be
// opened from several goroutines (sweep workers).
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under parent and returns its id.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: now, End: -1})
	return len(t.spans)
}

// end closes span id and returns its duration in seconds.
func (t *tracer) end(id int) float64 {
	if t == nil || id == 0 {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End = now
	return float64(s.End-s.Start) / 1e9
}

// record adds an already-measured span (a call timed by a hook pair that
// runs on another goroutine) and returns its id.
func (t *tracer) record(name string, parent int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds(),
	})
	return len(t.spans)
}

// write stores the host record and every span as NDJSON at path.
func (t *tracer) write(path string, h hostRecord) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	err = enc.Encode(map[string]hostRecord{"host": h})
	for i := 0; err == nil && i < len(t.spans); i++ {
		err = enc.Encode(t.spans[i])
	}
	t.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("trace: writing %s: %w", path, err)
	}
	return nil
}
