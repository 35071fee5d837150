package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed interval at a layer boundary. Spans nest through
// parent ids (0 = root); a layer's self time is its duration minus the
// time its children cover.
type span struct {
	name   string
	start  time.Duration // since the tracer's epoch
	dur    time.Duration
	parent int
}

// tracer keeps a traced run's spans in memory; a span's id is its
// position in spans plus one. It is used from one goroutine: the runs
// it records are driven sequentially.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span under parent and returns its id.
func (t *tracer) begin(name string, parent int) int {
	t.spans = append(t.spans, span{name: name, start: time.Since(t.epoch), parent: parent})
	return len(t.spans)
}

// end closes a span and returns its duration.
func (t *tracer) end(id int) time.Duration {
	s := &t.spans[id-1]
	s.dur = time.Since(t.epoch) - s.start
	return s.dur
}

// add records a span measured elsewhere and returns its id.
func (t *tracer) add(name string, parent int, start time.Time, d time.Duration) int {
	t.spans = append(t.spans, span{name: name, start: start.Sub(t.epoch), dur: d, parent: parent})
	return len(t.spans)
}

// selfTimes sums each span name's self time.
func (t *tracer) selfTimes() map[string]time.Duration {
	child := make([]time.Duration, len(t.spans)+1)
	for _, s := range t.spans {
		child[s.parent] += s.dur
	}
	self := map[string]time.Duration{}
	for i, s := range t.spans {
		self[s.name] += s.dur - child[i+1]
	}
	return self
}

// writeChrome writes the spans in Chrome trace-event format, which
// Perfetto and chrome://tracing open.
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	events := make([]event, 0, len(t.spans))
	for i, s := range t.spans {
		events = append(events, event{
			Name: s.name, Ph: "X", PID: 1, TID: 1,
			TS:   float64(s.start) / float64(time.Microsecond),
			Dur:  float64(s.dur) / float64(time.Microsecond),
			Args: map[string]int{"id": i + 1, "parent": s.parent},
		})
	}
	b, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
