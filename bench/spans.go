package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one bench-owned trace span: a call the benchmark made into a
// layer. Parent is the ID of the span that caused it (0 for a root).
type span struct {
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent,omitempty"`
	Name    string `json:"name"`
	Layer   string `json:"layer"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// spanLog keeps spans in memory until the run ends. A nil *spanLog
// records nothing, which is how untraced runs stay untraced.
type spanLog struct {
	mu      sync.Mutex
	epoch   time.Time
	nextID  int64
	spans   []span
	dropped int64
}

// maxSpans bounds the trace file: at ~100 B a span this is about 5 MB.
const maxSpans = 50000

func newSpanLog() *spanLog { return &spanLog{epoch: time.Now()} }

// record stores a finished span and returns its ID for use as a parent.
func (l *spanLog) record(parent int64, layer, name string, start, end time.Time) int64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.nextID++
	if len(l.spans) >= maxSpans {
		l.dropped++
		return l.nextID
	}
	l.spans = append(l.spans, span{
		ID: l.nextID, Parent: parent, Name: name, Layer: layer,
		StartNs: start.Sub(l.epoch).Nanoseconds(), EndNs: end.Sub(l.epoch).Nanoseconds(),
	})
	return l.nextID
}

// write stores the spans as bench/results/trace_<workload>.json under dir.
func (l *spanLog) write(dir, workload string) (string, error) {
	if l == nil {
		return "", nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace_"+workload+".json")
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Dropped  int64  `json:"dropped"`
		Spans    []span `json:"spans"`
	}{workload, l.dropped, l.spans})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}
