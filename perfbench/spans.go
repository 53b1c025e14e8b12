package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call the benchmark made into a layer: its name, its
// interval in nanoseconds from the recorder's epoch, the index of the span
// that caused it (-1 for a root) and the run it belongs to. Calls counts
// the layer calls inside the interval when a span wraps a batch of them.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Run    int    `json:"run"`
	Calls  int    `json:"calls,omitempty"`
}

// spanLog keeps spans in memory until the benchmark ends. A nil *spanLog
// records nothing, so untraced runs pay only the nil check.
type spanLog struct {
	epoch time.Time
	spans []span
	runs  int
}

func newSpanLog() *spanLog { return &spanLog{epoch: time.Now()} }

// newRun returns a fresh run identifier; spans of one core.Run or one
// microbenchmark share it.
func (l *spanLog) newRun() int {
	if l == nil {
		return 0
	}
	l.runs++
	return l.runs
}

// begin opens a span and returns its index (or -1 on a nil log).
func (l *spanLog) begin(name string, parent, run int) int {
	if l == nil {
		return -1
	}
	l.spans = append(l.spans, span{
		Name: name, Start: int64(time.Since(l.epoch)), Parent: parent, Run: run,
	})
	return len(l.spans) - 1
}

// end closes span i, recording the number of layer calls it covered.
func (l *spanLog) end(i, calls int) {
	if l == nil || i < 0 {
		return
	}
	l.spans[i].End = int64(time.Since(l.epoch))
	l.spans[i].Calls = calls
}

// write stores the spans, with the run's identity, as one JSON document.
func (l *spanLog) write(path string, header map[string]any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	doc := map[string]any{"run": header, "spans": l.spans}
	buf, err := json.Marshal(doc)
	if err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	return nil
}
