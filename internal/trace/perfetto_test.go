package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/sys"
)

// parsedEvent mirrors the trace_event fields the tests check.
type parsedEvent struct {
	Name string            `json:"name"`
	Ph   string            `json:"ph"`
	Ts   float64           `json:"ts"`
	Dur  float64           `json:"dur"`
	Pid  uint32            `json:"pid"`
	Tid  uint32            `json:"tid"`
	Args map[string]string `json:"args"`
}

type parsedTrace struct {
	TraceEvents     []parsedEvent     `json:"traceEvents"`
	DisplayTimeUnit string            `json:"displayTimeUnit"`
	OtherData       map[string]string `json:"otherData"`
}

func exportParsed(t *testing.T, events []Event) parsedTrace {
	t.Helper()
	var buf bytes.Buffer
	if err := ExportJSON(&buf, events); err != nil {
		t.Fatalf("ExportJSON: %v", err)
	}
	var p parsedTrace
	if err := json.Unmarshal(buf.Bytes(), &p); err != nil {
		t.Fatalf("exported trace is not valid JSON: %v\n%s", err, buf.String())
	}
	return p
}

func TestExportJSONSyscallSpans(t *testing.T) {
	events := []Event{
		{Time: 200, TID: 1, Kind: SyscallEnter, A: uint32(sys.NNull)},
		{Time: 600, TID: 1, Kind: SyscallExit, A: uint32(sys.NNull), B: uint32(sys.KOK)},
		{Time: 800, TID: 2, Kind: Wake, A: 1},
		{Time: 1000, TID: 2, Kind: Fault, A: 0x4000, B: 1},
	}
	p := exportParsed(t, events)
	if p.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit %q", p.DisplayTimeUnit)
	}
	var span *parsedEvent
	for i := range p.TraceEvents {
		e := &p.TraceEvents[i]
		if e.Ph == "X" {
			span = e
		}
	}
	if span == nil {
		t.Fatal("no complete span for the enter/exit pair")
	}
	if span.Name != sys.Name(sys.NNull) || span.Tid != 1 {
		t.Fatalf("span %+v", *span)
	}
	if span.Ts != 1.0 || span.Dur != 2.0 { // 200 cyc = 1 µs, 400 cyc = 2 µs
		t.Fatalf("span timing ts=%v dur=%v", span.Ts, span.Dur)
	}
	if span.Args["result"] != sys.KOK.String() {
		t.Fatalf("span args %v", span.Args)
	}
}

func TestExportJSONEveryEventWellFormed(t *testing.T) {
	// One of every kind, including an exit whose enter is missing (as
	// after a ring wrap) and an enter that never exits.
	events := []Event{
		{Time: 0, TID: 3, Kind: SyscallExit, A: uint32(sys.NNull), B: uint32(sys.KOK)},
		{Time: 100, TID: 1, Kind: CtxSwitch, A: 1},
		{Time: 200, TID: 1, Kind: SyscallEnter, A: uint32(sys.NThreadSelf)},
		{Time: 300, TID: 1, Kind: Preempt, A: 1},
		{Time: 400, TID: 1, Kind: IRQ, A: 5},
		{Time: 500, TID: 1, Kind: ThreadExit, A: 7},
	}
	p := exportParsed(t, events)
	if len(p.TraceEvents) == 0 {
		t.Fatal("no events exported")
	}
	names := map[uint32]string{}
	var lastTs float64
	for _, e := range p.TraceEvents {
		switch e.Ph {
		case "M":
			names[e.Tid] = e.Args["name"]
			continue
		case "X", "i":
		default:
			t.Fatalf("unexpected phase %q in %+v", e.Ph, e)
		}
		if e.Ts < lastTs {
			t.Fatalf("events not time-sorted: %v after %v", e.Ts, lastTs)
		}
		lastTs = e.Ts
		if e.Name == "" {
			t.Fatalf("unnamed event %+v", e)
		}
		if e.Pid != 1 {
			t.Fatalf("pid %d", e.Pid)
		}
	}
	// Every tid that appears has a thread_name metadata record.
	for _, e := range p.TraceEvents {
		if e.Ph != "M" {
			if _, ok := names[e.Tid]; !ok {
				t.Fatalf("tid %d has no thread_name metadata", e.Tid)
			}
		}
	}
	// The orphaned exit and the in-flight enter must both degrade to
	// instants, never unbalanced B/E phases.
	var orphanExit, inFlight bool
	for _, e := range p.TraceEvents {
		if e.Ph == "i" && strings.HasPrefix(e.Name, "sys- ") {
			orphanExit = true
		}
		if e.Ph == "i" && strings.HasPrefix(e.Name, "sys+ ") {
			inFlight = true
		}
	}
	if !orphanExit || !inFlight {
		t.Fatalf("orphan handling missing: exit=%v enter=%v", orphanExit, inFlight)
	}
}

func TestExportJSONFromWrappedRing(t *testing.T) {
	r := NewRing(8)
	for i := uint64(0); i < 50; i++ {
		kind := SyscallEnter
		if i%2 == 1 {
			kind = SyscallExit
		}
		r.Add(Event{Time: i * 100, TID: uint32(i % 3), Kind: kind, A: uint32(sys.NNull)})
	}
	var buf bytes.Buffer
	if err := r.ExportJSON(&buf); err != nil {
		t.Fatalf("ExportJSON: %v", err)
	}
	var p parsedTrace
	if err := json.Unmarshal(buf.Bytes(), &p); err != nil {
		t.Fatalf("wrapped ring export not valid JSON: %v", err)
	}
	if len(p.TraceEvents) == 0 {
		t.Fatal("no events from wrapped ring")
	}
	// The export must declare how much of the trace the wrap lost:
	// 50 events into an 8-slot ring drops 42 and retains 8.
	if got := p.OtherData["droppedEvents"]; got != "42" {
		t.Fatalf("otherData.droppedEvents = %q, want \"42\"", got)
	}
	if got := p.OtherData["retainedEvents"]; got != "8" {
		t.Fatalf("otherData.retainedEvents = %q, want \"8\"", got)
	}
}

// TestExportJSONInFlightDeterministic exports a two-track ring whose
// syscalls are both still in flight at the same timestamp, 50 times: the
// in-flight instants must come out in one order every time, not in the
// order a map of open syscalls happens to iterate.
func TestExportJSONInFlightDeterministic(t *testing.T) {
	r := NewRing(16)
	r.Add(Event{Time: 100, CPU: 0, TID: 1, Kind: SyscallEnter, A: uint32(sys.NMutexLock)})
	r.Add(Event{Time: 100, CPU: 1, TID: 2, Kind: SyscallEnter, A: uint32(sys.NThreadSleep)})
	var first []byte
	for i := 0; i < 50; i++ {
		var buf bytes.Buffer
		if err := r.ExportJSON(&buf); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = buf.Bytes()
			continue
		}
		if !bytes.Equal(buf.Bytes(), first) {
			t.Fatalf("export %d differs from the first:\n%s\nvs\n%s", i, buf.Bytes(), first)
		}
	}
	if !bytes.Contains(first, []byte("still in flight")) {
		t.Fatal("the in-flight syscalls were not exported")
	}
}
