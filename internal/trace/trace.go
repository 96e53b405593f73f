// Package trace is the kernel's typed event tracer: a fixed-capacity ring
// of timestamped events the kernel emits at syscall, scheduling, fault,
// and IPC boundaries. Tracing is allocation-free after setup and costs
// one branch when disabled, so it can stay attached during benchmarks.
package trace

import (
	"fmt"
	"strings"

	"repro/internal/clock"
	"repro/internal/sys"
)

// Kind classifies an event.
type Kind uint8

// Event kinds.
const (
	// SyscallEnter: A = syscall number, B = 1 if a kernel-internal
	// re-dispatch of a continuation.
	SyscallEnter Kind = iota
	// SyscallExit: A = syscall number, B = kernel-internal result code.
	SyscallExit
	// CtxSwitch: A = incoming thread ID.
	CtxSwitch
	// Fault: A = faulting VA, B = class (mmu.FaultClass) | side<<8.
	Fault
	// Wake: A = woken thread ID.
	Wake
	// Preempt: A = 0 user boundary, 1 explicit point, 2 in-kernel (FP).
	Preempt
	// ThreadExit: A = exit code, B = the exiting thread's ID (TID is the
	// thread that was running, which differs when one thread destroys
	// another, or is 0 during Kernel.Shutdown).
	ThreadExit
	// IRQ: A = line.
	IRQ
	// IPI: A = target CPU (cross-CPU reschedule request).
	IPI
	// Steal: A = victim CPU, B = stolen thread ID.
	Steal
	// Handoff: A = incoming thread ID — an IPC fast-path direct switch:
	// the blocking donor hands its remaining slice straight to the peer,
	// bypassing the run queue (emitted instead of CtxSwitch).
	Handoff
	// Share: A = receiver-side VA, B = shared frame's PFN — one page
	// moved by the zero-copy IPC path (copy-on-write frame aliasing
	// instead of a word copy).
	Share
	// COWBreak: A = faulting VA, B = 1 if the page was copied (the share
	// was still live), 0 if write permission was simply restored.
	COWBreak
	// Flow: A = causal IPC span ID, B = flow point (FlowBegin..FlowEnd).
	// Emitted by the kernel's span tracker (Config.EnableIPCSpans) at
	// every causal checkpoint of a request: mint at IPC send, copy and
	// zero-copy transfers, rendezvous wakes, direct handoffs, donation
	// steals, and completion. Exported as Perfetto flow events, consumed
	// by the flukebench -critpath analyzer.
	Flow
	// NICDrain: A = NIC queue index, B = frames the device handed to the
	// driver since the previous drain boundary (the arm write that
	// re-enabled the queue's interrupt). B > 1 means the drain coalesced
	// that many frame deliveries behind one interrupt.
	NICDrain
)

// Flow points (Event.B of a Flow event): where along its causal chain a
// span was observed.
const (
	// FlowBegin: the span was minted — an IPC send syscall entered.
	FlowBegin uint32 = iota
	// FlowCopy: a CopyWords transfer moved data along the span.
	FlowCopy
	// FlowShare: informational alias of FlowCopy for zero-copy runs
	// (reserved; the copy checkpoint covers both today).
	FlowShare
	// FlowWake: a rendezvous completion woke the span's next hop.
	FlowWake
	// FlowHandoff: the next hop was dispatched by direct handoff.
	FlowHandoff
	// FlowSteal: the next hop was stolen by another CPU.
	FlowSteal
	// FlowEnd: the owning thread's IPC syscall completed.
	FlowEnd

	// NumFlowPoints bounds the enum.
	NumFlowPoints
)

// FlowPointNames are the flow-point labels in constant order.
var FlowPointNames = [NumFlowPoints]string{
	"begin", "copy", "share", "wake", "handoff", "steal", "end",
}

// FlowPointName renders a flow point, tolerating out-of-range values.
func FlowPointName(p uint32) string {
	if p < NumFlowPoints {
		return FlowPointNames[p]
	}
	return fmt.Sprintf("point%d", p)
}

func (k Kind) String() string {
	switch k {
	case SyscallEnter:
		return "sys+"
	case SyscallExit:
		return "sys-"
	case CtxSwitch:
		return "switch"
	case Fault:
		return "fault"
	case Wake:
		return "wake"
	case Preempt:
		return "preempt"
	case ThreadExit:
		return "exit"
	case IRQ:
		return "irq"
	case IPI:
		return "ipi"
	case Steal:
		return "steal"
	case Handoff:
		return "handoff"
	case Share:
		return "share"
	case COWBreak:
		return "cowbreak"
	case Flow:
		return "flow"
	case NICDrain:
		return "nicdrain"
	}
	return fmt.Sprintf("kind%d", uint8(k))
}

// Event is one trace record.
type Event struct {
	Time uint64 // virtual cycles (emitting CPU's local clock)
	TID  uint32 // current thread (0 = scheduler context)
	CPU  uint32 // emitting simulated CPU (its Perfetto lane)
	Kind Kind
	A, B uint32
}

// String renders an event one-per-line, times in µs.
func (e Event) String() string {
	detail := ""
	switch e.Kind {
	case SyscallEnter:
		detail = sys.Name(int(e.A))
		if e.B == 1 {
			detail += " (redispatch)"
		}
	case SyscallExit:
		detail = fmt.Sprintf("%s -> %v", sys.Name(int(e.A)), sys.KErr(e.B))
	case CtxSwitch, Wake, Handoff:
		detail = fmt.Sprintf("t%d", e.A)
	case Fault:
		side := "client"
		if e.B>>8 != 0 {
			side = "server"
		}
		class := fmt.Sprintf("class%d", e.B&0xFF)
		if names := [...]string{"fatal", "soft", "hard", "cow"}; e.B&0xFF < uint32(len(names)) {
			class = names[e.B&0xFF]
		}
		detail = fmt.Sprintf("%#x %s/%s", e.A, class, side)
	case Share:
		detail = fmt.Sprintf("%#x pfn=%d", e.A, e.B)
	case COWBreak:
		mode := "upgrade"
		if e.B != 0 {
			mode = "copy"
		}
		detail = fmt.Sprintf("%#x %s", e.A, mode)
	case Preempt:
		detail = [...]string{"user-boundary", "explicit-point", "in-kernel"}[e.A]
	case ThreadExit:
		detail = fmt.Sprintf("code=%#x", e.A)
	case IRQ:
		detail = fmt.Sprintf("line %d", e.A)
	case IPI:
		detail = fmt.Sprintf("-> cpu%d", e.A)
	case Steal:
		detail = fmt.Sprintf("t%d from cpu%d", e.B, e.A)
	case Flow:
		detail = fmt.Sprintf("span=%d %s", e.A, FlowPointName(e.B))
	case NICDrain:
		detail = fmt.Sprintf("queue %d frames=%d", e.A, e.B)
	}
	return fmt.Sprintf("[%12.2fus] c%d t%-3d %-7s %s", clock.Micros(e.Time), e.CPU, e.TID, e.Kind, detail)
}

// Ring is a bounded event buffer; when full, the oldest events are
// overwritten and counted as dropped.
type Ring struct {
	buf     []Event
	next    int
	filled  bool
	dropped uint64
}

// NewRing creates a ring holding up to capacity events.
func NewRing(capacity int) *Ring {
	if capacity <= 0 {
		capacity = 1024
	}
	return &Ring{buf: make([]Event, capacity)}
}

// Add records an event.
func (r *Ring) Add(e Event) {
	if r.filled {
		r.dropped++
	}
	r.buf[r.next] = e
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
		r.filled = true
	}
}

// Events returns the retained events in chronological order.
func (r *Ring) Events() []Event {
	if !r.filled {
		return append([]Event(nil), r.buf[:r.next]...)
	}
	out := make([]Event, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	out = append(out, r.buf[:r.next]...)
	return out
}

// Dropped returns how many events were overwritten.
func (r *Ring) Dropped() uint64 { return r.dropped }

// Len returns the number of retained events.
func (r *Ring) Len() int {
	if r.filled {
		return len(r.buf)
	}
	return r.next
}

// Dump renders all retained events.
func (r *Ring) Dump() string {
	var b strings.Builder
	if d := r.Dropped(); d > 0 {
		fmt.Fprintf(&b, "... %d earlier events dropped ...\n", d)
	}
	for _, e := range r.Events() {
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	return b.String()
}
