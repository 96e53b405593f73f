package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one call from the harness into a layer of the system: the
// harness records these itself, around the call, so the program under
// test needs no instrumentation of its own. parent is the index of the
// enclosing span (-1 at top level); spans of one repetition share the
// workload name and repetition id.
type span struct {
	name       string
	start, end time.Duration // since the recorder was created
	parent     int
	workload   string
	rep        int
	children   time.Duration // total duration of direct children
}

// spanRec keeps spans in memory until the benchmark ends. A nil *spanRec
// records nothing, which is how the end-to-end pass runs.
type spanRec struct {
	t0       time.Time
	spans    []span
	stack    []int
	workload string
	rep      int
}

func newSpanRec() *spanRec { return &spanRec{t0: time.Now()} }

// scope sets the workload name and repetition id stamped on new spans.
func (r *spanRec) scope(workload string, rep int) {
	if r != nil {
		r.workload, r.rep = workload, rep
	}
}

// do runs fn inside a span named name.
func (r *spanRec) do(name string, fn func()) {
	if r == nil {
		fn()
		return
	}
	parent := -1
	if n := len(r.stack); n > 0 {
		parent = r.stack[n-1]
	}
	id := len(r.spans)
	r.spans = append(r.spans, span{name: name, start: time.Since(r.t0), parent: parent, workload: r.workload, rep: r.rep})
	r.stack = append(r.stack, id)
	fn()
	r.stack = r.stack[:len(r.stack)-1]
	s := &r.spans[id]
	s.end = time.Since(r.t0)
	if parent >= 0 {
		r.spans[parent].children += s.end - s.start
	}
}

// perfettoEvent is one Chrome-trace "complete" event; Perfetto and
// chrome://tracing both load the enclosing {"traceEvents": [...]} file.
type perfettoEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // µs
	Dur  float64        `json:"dur"` // µs
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// write exports the spans as a Perfetto-loadable JSON file. Each event
// carries its parent's index, the workload and repetition it belongs to,
// and its self time (duration minus the part its children cover).
func (r *spanRec) write(path string) error {
	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
	events := make([]perfettoEvent, 0, len(r.spans))
	for i, s := range r.spans {
		events = append(events, perfettoEvent{
			Name: s.name, Ph: "X", Ts: us(s.start), Dur: us(s.end - s.start), Pid: 1, Tid: 1,
			Args: map[string]any{
				"id": i, "parent": s.parent, "workload": s.workload, "rep": s.rep,
				"self_us": us(s.end - s.start - s.children),
			},
		})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
