package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"repro/internal/clock"
	"repro/internal/sys"
)

// This file exports the typed event ring in Chrome trace_event JSON (the
// "JSON Array Format" both chrome://tracing and ui.perfetto.dev open
// natively): one trace "process" per simulated CPU (its lane group), one
// track per thread ID within it, syscalls as complete ("X") spans from
// enter to exit, everything else as thread-scoped instants. Timestamps
// are virtual microseconds via clock.CyclesPerMicrosecond.

// jsonEvent is one trace_event record — the field subset we emit.
type jsonEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat,omitempty"`
	Ph   string            `json:"ph"`
	Ts   float64           `json:"ts"`
	Dur  float64           `json:"dur"`
	Pid  uint32            `json:"pid"`
	Tid  uint32            `json:"tid"`
	S    string            `json:"s,omitempty"`
	ID   string            `json:"id,omitempty"` // flow-event binding ID
	BP   string            `json:"bp,omitempty"` // flow binding point ("e")
	Args map[string]string `json:"args,omitempty"`
}

// jsonTrace is the trace_event JSON Object Format envelope. OtherData is
// the format's free-form metadata map; the ring export records its drop
// count there so a wrapped trace is visibly incomplete.
type jsonTrace struct {
	TraceEvents     []jsonEvent       `json:"traceEvents"`
	DisplayTimeUnit string            `json:"displayTimeUnit"`
	OtherData       map[string]string `json:"otherData,omitempty"`
}

// pidOf maps a simulated CPU to its trace process ID. CPU 0 is pid 1, so
// uniprocessor traces look exactly as they did before CPU lanes existed.
func pidOf(cpu uint32) uint32 { return cpu + 1 }

// usOf converts a cycle timestamp to trace microseconds.
func usOf(cycles uint64) float64 { return clock.Micros(cycles) }

// instant builds a thread-scoped instant event.
func instant(e Event, name string, args map[string]string) jsonEvent {
	return jsonEvent{
		Name: name, Cat: "kernel", Ph: "i", S: "t",
		Ts: usOf(e.Time), Pid: pidOf(e.CPU), Tid: e.TID, Args: args,
	}
}

// ExportJSON writes events (chronological, as returned by Ring.Events)
// as Chrome trace_event JSON. SyscallEnter/SyscallExit pairs on the same
// thread become complete spans; an exit whose enter fell off the ring
// (or vice versa) degrades to an instant, so wrapped rings still export
// a well-formed trace.
func ExportJSON(w io.Writer, events []Event) error {
	return ExportJSONMeta(w, events, nil)
}

// ExportJSONMeta is ExportJSON with extra envelope metadata (the format's
// otherData map) — the ring export stamps its drop count there.
func ExportJSONMeta(w io.Writer, events []Event, meta map[string]string) error {
	out := make([]jsonEvent, 0, len(events)+8)

	// One process_name metadata record per CPU lane and one thread_name
	// record per (CPU, thread) track.
	type track struct{ cpu, tid uint32 }
	cpus := map[uint32]bool{}
	tracks := map[track]bool{}
	for _, e := range events {
		cpus[e.CPU] = true
		tracks[track{e.CPU, e.TID}] = true
	}
	sortedCPUs := make([]uint32, 0, len(cpus))
	for c := range cpus {
		sortedCPUs = append(sortedCPUs, c)
	}
	sort.Slice(sortedCPUs, func(i, j int) bool { return sortedCPUs[i] < sortedCPUs[j] })
	for _, c := range sortedCPUs {
		out = append(out, jsonEvent{
			Name: "process_name", Ph: "M", Pid: pidOf(c),
			Args: map[string]string{"name": fmt.Sprintf("cpu %d", c)},
		})
	}
	sortedTracks := make([]track, 0, len(tracks))
	for tr := range tracks {
		sortedTracks = append(sortedTracks, tr)
	}
	sort.Slice(sortedTracks, func(i, j int) bool {
		if sortedTracks[i].cpu != sortedTracks[j].cpu {
			return sortedTracks[i].cpu < sortedTracks[j].cpu
		}
		return sortedTracks[i].tid < sortedTracks[j].tid
	})
	for _, tr := range sortedTracks {
		name := fmt.Sprintf("thread %d", tr.tid)
		if tr.tid == 0 {
			name = "scheduler"
		}
		out = append(out, jsonEvent{
			Name: "thread_name", Ph: "M", Pid: pidOf(tr.cpu), Tid: tr.tid,
			Args: map[string]string{"name": name},
		})
	}

	open := map[track][]Event{} // per-track stack of unmatched SyscallEnter
	for _, e := range events {
		key := track{e.CPU, e.TID}
		switch e.Kind {
		case SyscallEnter:
			open[key] = append(open[key], e)
		case SyscallExit:
			stack := open[key]
			if n := len(stack); n > 0 && stack[n-1].A == e.A {
				enter := stack[n-1]
				open[key] = stack[:n-1]
				args := map[string]string{"result": sys.KErr(e.B).String()}
				if enter.B == 1 {
					args["redispatch"] = "true"
				}
				out = append(out, jsonEvent{
					Name: sys.Name(int(e.A)), Cat: "syscall", Ph: "X",
					Ts: usOf(enter.Time), Dur: usOf(e.Time - enter.Time),
					Pid: pidOf(e.CPU), Tid: e.TID, Args: args,
				})
			} else {
				out = append(out, instant(e, "sys- "+sys.Name(int(e.A)),
					map[string]string{"result": sys.KErr(e.B).String(), "note": "enter dropped from ring"}))
			}
		case CtxSwitch:
			out = append(out, instant(e, "switch",
				map[string]string{"incoming": fmt.Sprintf("t%d", e.A)}))
		case Wake:
			out = append(out, instant(e, "wake",
				map[string]string{"woken": fmt.Sprintf("t%d", e.A)}))
		case Fault:
			side := "client"
			if e.B>>8 != 0 {
				side = "server"
			}
			class := fmt.Sprintf("class%d", e.B&0xFF)
			if names := [...]string{"fatal", "soft", "hard", "cow"}; e.B&0xFF < uint32(len(names)) {
				class = names[e.B&0xFF]
			}
			out = append(out, instant(e, "fault "+class,
				map[string]string{"va": fmt.Sprintf("%#x", e.A), "class": class, "side": side}))
		case Preempt:
			kind := [...]string{"user-boundary", "explicit-point", "in-kernel"}[e.A]
			out = append(out, instant(e, "preempt", map[string]string{"at": kind}))
		case ThreadExit:
			out = append(out, instant(e, "exit",
				map[string]string{"code": fmt.Sprintf("%#x", e.A)}))
		case IRQ:
			out = append(out, instant(e, fmt.Sprintf("irq %d", e.A), nil))
		case IPI:
			out = append(out, instant(e, "ipi",
				map[string]string{"target": fmt.Sprintf("cpu%d", e.A)}))
		case Steal:
			out = append(out, instant(e, "steal",
				map[string]string{"thread": fmt.Sprintf("t%d", e.B), "victim": fmt.Sprintf("cpu%d", e.A)}))
		case Handoff:
			out = append(out, instant(e, "handoff",
				map[string]string{"incoming": fmt.Sprintf("t%d", e.A)}))
		case Share:
			out = append(out, instant(e, "share",
				map[string]string{"va": fmt.Sprintf("%#x", e.A), "pfn": fmt.Sprintf("%d", e.B)}))
		case NICDrain:
			out = append(out, instant(e, fmt.Sprintf("nic drain q%d", e.A),
				map[string]string{"queue": fmt.Sprintf("%d", e.A), "frames": fmt.Sprintf("%d", e.B)}))
		case COWBreak:
			mode := "upgrade"
			if e.B != 0 {
				mode = "copy"
			}
			out = append(out, instant(e, "cowbreak",
				map[string]string{"va": fmt.Sprintf("%#x", e.A), "mode": mode}))
		case Flow:
			// A causal IPC span checkpoint: a flow event (the viewer draws
			// arrows between same-ID flow records across tracks) plus args
			// naming the checkpoint. begin opens the flow ("s"), end closes
			// it ("f" binding to the enclosing slice), middles step ("t").
			ph, bp := "t", ""
			switch e.B {
			case FlowBegin:
				ph = "s"
			case FlowEnd:
				ph, bp = "f", "e"
			}
			out = append(out, jsonEvent{
				Name: "ipc-span", Cat: "ipc", Ph: ph, ID: fmt.Sprintf("%d", e.A), BP: bp,
				Ts: usOf(e.Time), Pid: pidOf(e.CPU), Tid: e.TID,
				Args: map[string]string{"span": fmt.Sprintf("%d", e.A), "point": FlowPointName(e.B)},
			})
		default:
			out = append(out, instant(e, e.Kind.String(), nil))
		}
	}
	// Syscalls still in flight when the ring was captured: instants, so
	// the viewer shows them without an unbalanced begin. They go out in
	// track order, so the stable sort below keeps equal timestamps in an
	// order that does not depend on map iteration.
	for _, tr := range sortedTracks {
		for _, enter := range open[tr] {
			out = append(out, instant(enter, "sys+ "+sys.Name(int(enter.A)),
				map[string]string{"note": "still in flight"}))
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Ts < out[j].Ts })

	return json.NewEncoder(w).Encode(jsonTrace{TraceEvents: out, DisplayTimeUnit: "ms", OtherData: meta})
}

// ExportJSON writes the ring's retained events in Chrome trace_event
// JSON, ready for ui.perfetto.dev. The envelope's otherData records how
// many earlier events the ring overwrote, so a wrapped trace declares its
// own incompleteness.
func (r *Ring) ExportJSON(w io.Writer) error {
	meta := map[string]string{
		"droppedEvents":  fmt.Sprintf("%d", r.Dropped()),
		"retainedEvents": fmt.Sprintf("%d", r.Len()),
	}
	return ExportJSONMeta(w, r.Events(), meta)
}
