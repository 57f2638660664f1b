package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// hostSpan is one host-time interval the benchmark records around a call
// into a layer. Spans of one operation share Op; Parent is the ID of the
// enclosing span (0 for a root).
type hostSpan struct {
	Op     int    `json:"op"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps host-time spans in memory. A nil *recorder records
// nothing, so untraced passes call its methods unconditionally.
type recorder struct {
	origin time.Time
	list   []hostSpan
	op     int
}

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

// nextOp starts a new operation; spans begun after it carry its id.
func (r *recorder) nextOp() {
	if r != nil {
		r.op++
	}
}

// begin opens a span and returns its ID (0 on a nil recorder).
func (r *recorder) begin(name string, parent int) int {
	if r == nil {
		return 0
	}
	r.list = append(r.list, hostSpan{
		Op: r.op, ID: len(r.list) + 1, Parent: parent, Name: name,
		Start: int64(time.Since(r.origin)),
	})
	return len(r.list)
}

// end closes the span opened by begin.
func (r *recorder) end(id int) {
	if r == nil || id == 0 {
		return
	}
	r.list[id-1].End = int64(time.Since(r.origin))
}

// endAs closes the span under a name learned only once the call returned
// (a Predict that turned out to refresh the model).
func (r *recorder) endAs(id int, name string) {
	if r == nil || id == 0 {
		return
	}
	r.list[id-1].Name = name
	r.end(id)
}

// layerTime is the summed host time of every span with one name: total
// duration, and self time (duration minus what its direct children cover).
type layerTime struct {
	total, self time.Duration
}

// layerTimesFrom folds the spans recorded from index from on by name.
// Spans are recorded by one goroutine around synchronous calls, so
// children never overlap and their covered time is the sum of their
// durations.
func (r *recorder) layerTimesFrom(from int) map[string]layerTime {
	out := make(map[string]layerTime)
	if r == nil {
		return out
	}
	child := make([]time.Duration, len(r.list)+1)
	for _, s := range r.list[from:] {
		if s.Parent != 0 {
			child[s.Parent] += time.Duration(s.End - s.Start)
		}
	}
	for _, s := range r.list[from:] {
		d := time.Duration(s.End - s.Start)
		lt := out[s.Name]
		lt.total += d
		lt.self += d - child[s.ID]
		out[s.Name] = lt
	}
	return out
}

// writeSpans writes spans as JSON lines to path, creating its directory.
func writeSpans(path string, spans []hostSpan) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
