package main

import (
	"encoding/json"
	"io"
	"time"
)

// The benchmark's own tracing: every layer driver call is wrapped in a
// span recorded in memory — name, start, end, parent, run id — and the
// spans are written out once, at exit, as Chrome trace-event JSON
// (chrome://tracing and Perfetto both load it). Nothing here reaches
// into the program under test: spans surround calls into its public
// functions.

// span is one recorded interval, in nanoseconds since the tracer's
// epoch. Parent is the index of the enclosing span, -1 at the root.
type span struct {
	Name    string `json:"name"`
	Run     string `json:"run"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
}

// tracer records spans on one goroutine.
type tracer struct {
	epoch time.Time
	run   string
	spans []span
	open  []int // stack of open span indices
}

func newTracer(run string) *tracer { return &tracer{epoch: time.Now(), run: run} }

// do runs fn inside a span and returns the span's duration.
func (t *tracer) do(name string, fn func()) time.Duration {
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Run: t.run, Parent: parent})
	t.open = append(t.open, id)
	start := time.Now()
	fn()
	end := time.Now()
	t.open = t.open[:len(t.open)-1]
	t.spans[id].StartNs = start.Sub(t.epoch).Nanoseconds()
	t.spans[id].EndNs = end.Sub(t.epoch).Nanoseconds()
	return end.Sub(start)
}

// selfNs returns each span's self time: its duration minus the part its
// direct children cover.
func selfNs(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] += s.EndNs - s.StartNs
		if s.Parent >= 0 {
			self[s.Parent] -= s.EndNs - s.StartNs
		}
	}
	return self
}

// traceEvent is one Chrome trace-event "complete" (ph X) record.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // microseconds
	Dur  float64        `json:"dur"` // microseconds
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChromeTrace writes the runs' spans as one trace file; each run
// (one workload's traced pass) becomes one process row.
func writeChromeTrace(w io.Writer, runs map[string][]span, order []string) error {
	var events []traceEvent
	for pid, run := range order {
		spans := runs[run]
		events = append(events, traceEvent{
			Name: "process_name", Ph: "M", Pid: pid,
			Args: map[string]any{"name": run},
		})
		self := selfNs(spans)
		for i, s := range spans {
			events = append(events, traceEvent{
				Name: s.Name, Cat: "psperf", Ph: "X",
				Ts: float64(s.StartNs) / 1e3, Dur: float64(s.EndNs-s.StartNs) / 1e3,
				Pid: pid, Tid: 1,
				Args: map[string]any{"run": s.Run, "id": i, "parent": s.Parent, "self_us": float64(self[i]) / 1e3},
			})
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
}
