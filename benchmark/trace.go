package main

import (
	"encoding/json"
	"io"
	"time"
)

// span is one timed interval at a layer boundary. Spans are recorded by
// the benchmark's own code around its calls into each layer — nothing
// inside the simulator is instrumented — so machine.run is a leaf.
type span struct {
	Name   string
	Start  time.Duration // since the tracer was created
	End    time.Duration
	Parent int // index of the enclosing span, -1 for a root
	Pass   int // the pass the span belongs to: spans of one pass share it
}

// tracer collects spans in memory; they are written out when the
// benchmark ends. A nil *tracer records nothing, so the timed passes and
// the traced pass share one code path. Spans nest by call order: the
// traced pass runs on one goroutine.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int // stack of open span indices
	pass  int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under the innermost open one and returns its id.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Start: time.Since(t.t0), Parent: parent, Pass: t.pass})
	id := len(t.spans) - 1
	t.open = append(t.open, id)
	return id
}

// end closes span id, which must be the innermost open span.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	if n := len(t.open); n == 0 || t.open[n-1] != id {
		panic("benchmark: spans closed out of order")
	}
	t.spans[id].End = time.Since(t.t0)
	t.open = t.open[:len(t.open)-1]
}

// selfTimes returns each span's self time: its duration minus the part
// of that interval its direct children cover. Children of one parent
// never overlap (one goroutine), so the parts simply add.
func selfTimes(spans []span) []time.Duration {
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	return self
}

// selfByName sums self time per span name.
func selfByName(spans []span) map[string]time.Duration {
	out := make(map[string]time.Duration)
	for i, d := range selfTimes(spans) {
		out[spans[i].Name] += d
	}
	return out
}

// writeChromeTrace renders the spans as Chrome trace-event JSON
// (chrome://tracing, Perfetto): one complete ("X") event per span,
// timestamps in microseconds, the pass id as the thread so passes stack.
func writeChromeTrace(w io.Writer, spans []span) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	events := make([]event, len(spans))
	for i, s := range spans {
		events[i] = event{
			Name: s.Name, Ph: "X",
			TS:  float64(s.Start) / float64(time.Microsecond),
			Dur: float64(s.End-s.Start) / float64(time.Microsecond),
			PID: 1, TID: s.Pass,
			Args: map[string]int{"id": i, "parent": s.Parent},
		}
	}
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
}
