package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Parent is the index
// of the span that caused it (-1 for a root); spans of one request
// share Req. Track separates concurrent callers in the trace viewer.
type span struct {
	Name       string
	Start, End time.Duration // since the recorder's epoch
	Parent     int
	Req        uint64
	Track      int
}

// recorder keeps spans in memory; they are written out once, when the
// run ends, so recording costs one locked append per span.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// add records a finished span and returns its index.
func (r *recorder) add(name string, start, end time.Time, parent int, req uint64, track int) int {
	s := span{Name: name, Start: start.Sub(r.epoch), End: end.Sub(r.epoch), Parent: parent, Req: req, Track: track}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	i := len(r.spans) - 1
	r.mu.Unlock()
	return i
}

// open records a span whose end is not yet known; close sets it.
func (r *recorder) open(name string, parent int, req uint64, track int) int {
	now := time.Now()
	return r.add(name, now, now, parent, req, track)
}

func (r *recorder) close(i int) {
	end := time.Since(r.epoch)
	r.mu.Lock()
	r.spans[i].End = end
	r.mu.Unlock()
}

// selfTimes sums, per span name, each span's duration minus the part
// its direct children cover. A parent whose children run concurrently
// (the load span over the callers' submissions) is fully covered: its
// self time is 0, not negative.
func (r *recorder) selfTimes() map[string]time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	covered := make([]time.Duration, len(r.spans))
	for _, s := range r.spans {
		if s.Parent >= 0 {
			covered[s.Parent] += s.End - s.Start
		}
	}
	out := make(map[string]time.Duration)
	for i, s := range r.spans {
		out[s.Name] += max(0, s.End-s.Start-covered[i])
	}
	return out
}

// chromeEvent is one "complete" event of the Chrome trace-event format
// (chrome://tracing, ui.perfetto.dev); times are microseconds.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

func (r *recorder) writeChrome(path string) error {
	r.mu.Lock()
	events := make([]chromeEvent, len(r.spans))
	for i, s := range r.spans {
		events[i] = chromeEvent{
			Name: s.Name, Ph: "X", Ts: us(s.Start), Dur: us(s.End - s.Start), Pid: 1, Tid: s.Track,
			Args: map[string]any{"id": i, "parent": s.Parent, "req": s.Req},
		}
	}
	r.mu.Unlock()
	b, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
