// Package obj implements the nine primitive object types the Fluke kernel
// exports (paper Table 2): Mutex, Cond, Mapping, Region, Port, Portset,
// Space, Thread, and Reference.
//
// As in Fluke, kernel objects are named by virtual addresses: an object is
// "mapped into the address space of an application with the virtual
// address serving as the handle" (§4.3, footnote 3). A Space therefore
// carries a handle table from VA to object; syscalls resolve handles
// through it, faulting (and restarting) if the handle's page is not
// mapped.
package obj

import (
	"fmt"
	"sync"

	"repro/internal/clock"
	"repro/internal/cpu"
	"repro/internal/mmu"
	"repro/internal/sys"
)

// Header is the state common to every kernel object.
type Header struct {
	Type  sys.ObjType
	VA    uint32 // handle address in the owning space
	Owner *Space
	Name  string // set by the rename common op
	Dead  bool
	Refs  int // number of Reference objects pointing at this object
}

// Hdr returns the header; it makes *Header satisfy Obj via embedding.
func (h *Header) Hdr() *Header { return h }

// Obj is any kernel object.
type Obj interface {
	Hdr() *Header
}

// WaitQueue is a FIFO queue of blocked threads. It is part of kernel
// object state (mutex waiters, condition waiters, port queues, ...).
//
// Crucially for the atomic API, every thread on a wait queue has its user
// register state rolled forward to a consistent restart point *before*
// enqueueing, so the queue never holds hidden continuation state.
//
// Storage is a growable ring, like sched's run-queue deque: Enqueue and
// Dequeue are O(1) and allocation-free once the ring is warm, so the IPC
// rendezvous path (one park + one unpark per transfer leg) does not
// allocate per message. It used to be an append/copy-shift slice, which
// was alloc-free only until resetConn discarded the backing array with
// the rest of the connection state (see ipc.resetConn, which now
// preserves it).
type WaitQueue struct {
	Name string
	buf  []*Thread
	head int // index of the first element
	n    int
}

func (q *WaitQueue) at(i int) *Thread { return q.buf[(q.head+i)%len(q.buf)] }

func (q *WaitQueue) grow() {
	if q.n < len(q.buf) {
		return
	}
	newCap := 2 * len(q.buf)
	if newCap == 0 {
		newCap = 4
	}
	buf := make([]*Thread, newCap)
	for i := 0; i < q.n; i++ {
		buf[i] = q.at(i)
	}
	q.buf, q.head = buf, 0
}

// Enqueue appends t and records the queue on the thread.
func (q *WaitQueue) Enqueue(t *Thread) {
	if t.WaitQ != nil {
		panic(fmt.Sprintf("obj: thread %d already on queue %q", t.ID, t.WaitQ.Name))
	}
	t.WaitQ = q
	q.grow()
	q.buf[(q.head+q.n)%len(q.buf)] = t
	q.n++
}

// Dequeue removes and returns the head, or nil if empty.
func (q *WaitQueue) Dequeue() *Thread {
	if q.n == 0 {
		return nil
	}
	t := q.buf[q.head]
	q.buf[q.head] = nil
	q.head = (q.head + 1) % len(q.buf)
	q.n--
	t.WaitQ = nil
	return t
}

// removeAt unlinks position i preserving FIFO order of the rest.
func (q *WaitQueue) removeAt(i int) {
	for ; i < q.n-1; i++ {
		q.buf[(q.head+i)%len(q.buf)] = q.at(i + 1)
	}
	q.buf[(q.head+q.n-1)%len(q.buf)] = nil
	q.n--
}

// Remove unlinks t from the queue (used by thread_interrupt and
// destruction). It reports whether t was queued here.
func (q *WaitQueue) Remove(t *Thread) bool {
	for i := 0; i < q.n; i++ {
		if q.at(i) == t {
			q.removeAt(i)
			t.WaitQ = nil
			return true
		}
	}
	return false
}

// Len returns the number of queued threads.
func (q *WaitQueue) Len() int { return q.n }

// Peek returns the head without removing it.
func (q *WaitQueue) Peek() *Thread {
	if q.n == 0 {
		return nil
	}
	return q.buf[q.head]
}

// At returns the i-th queued thread (0 = head) without removing it —
// the allocation-free way to scan the queue when the scan itself does
// not dequeue (e.g. findAccepting on every IPC connect).
func (q *WaitQueue) At(i int) *Thread { return q.at(i) }

// Threads returns a snapshot of the queued threads in order. It
// allocates; use Len/At to iterate alloc-free, and this only where the
// iteration body may mutate the queue (wake-all paths).
func (q *WaitQueue) Threads() []*Thread {
	out := make([]*Thread, q.n)
	for i := range out {
		out[i] = q.at(i)
	}
	return out
}

// ThreadState is the run state of a thread.
type ThreadState uint8

const (
	// ThReady: runnable, on (or headed for) a run queue.
	ThReady ThreadState = iota
	// ThRunning: currently executing on the (virtual) CPU.
	ThRunning
	// ThBlocked: on a wait queue; registers are a consistent restart
	// point.
	ThBlocked
	// ThDead: destroyed.
	ThDead
)

func (s ThreadState) String() string {
	switch s {
	case ThReady:
		return "ready"
	case ThRunning:
		return "running"
	case ThBlocked:
		return "blocked"
	case ThDead:
		return "dead"
	}
	return "state?"
}

// IPCPhase is the exportable connection phase of a thread's IPC state.
type IPCPhase uint8

const (
	// IPCIdle: no connection.
	IPCIdle IPCPhase = iota
	// IPCSend: connected, this side currently holds the send direction.
	IPCSend
	// IPCRecv: connected, this side currently receives.
	IPCRecv
)

func (p IPCPhase) String() string {
	switch p {
	case IPCIdle:
		return "idle"
	case IPCSend:
		return "send"
	case IPCRecv:
		return "recv"
	}
	return "phase?"
}

// IPCState is one half of a thread's IPC connection state. As in Fluke,
// every thread has two independent halves — a *client* connection it
// initiated and a *server* connection it accepted — so a mid-chain server
// can hold its client's connection open while performing RPCs of its own
// downstream. The state lives in the thread control block ("The IPC
// connection state itself is stored as part of the current thread's
// control block in the kernel", §4.3) and is exportable through
// thread_get_state.
type IPCState struct {
	Phase IPCPhase
	// Peer is the connected thread; its *opposite* half points back.
	Peer *Thread

	// Accepting marks a thread blocked in ipc_wait_receive /
	// ipc_setup_wait, distinguishing it from portset_wait blockers on
	// the same queue (server half only).
	Accepting bool
	// WantSend/WantRecv mark a connected thread whose rolled-forward
	// registers describe a transfer buffer the peer may operate on
	// while this thread is not running.
	WantSend bool
	WantRecv bool
	// MsgEnd: the peer has ended its message toward this thread
	// ("over" or disconnect); the current receive completes when it is
	// consumed.
	MsgEnd bool
	// Closed: the peer disconnected gracefully.
	Closed bool
	// PeerDied: the peer thread was destroyed mid-connection.
	PeerDied bool

	// Wait is where the peer parks this thread when it must wait for
	// the other side's progress.
	Wait WaitQueue
}

// Thread is the thread control block — Fluke's Thread object. Everything a
// user-level manager may need is exportable: the register file (including
// the PR0/PR1 pseudo-registers), scheduling parameters, and the IPC phase.
type Thread struct {
	Header
	ID    uint32
	Space *Space
	Regs  cpu.Regs

	State       ThreadState
	Stopped     bool // thread_stop; excluded from scheduling until resumed
	Interrupted bool // thread_interrupt pending

	Priority int

	// HomeCPU is the simulated CPU the thread last ran on (and the queue
	// a wake re-enqueues it to); maintained by internal/core. Threads
	// migrate by work stealing, which updates it at dispatch.
	HomeCPU int

	// WaitQ is the wait queue the thread is blocked on, if any.
	WaitQ *WaitQueue

	// Donated marks a ready thread staged in a run queue's donation
	// slot: an IPC handoff target that will be dispatched directly,
	// inheriting the donor's remaining time slice, as soon as the donor
	// blocks. Maintained by sched's Donate/TakeDonation/Remove.
	Donated bool

	// SleepTimer is the pending wakeup for thread_sleep/clock_alarm_wait.
	SleepTimer *clock.Timer

	// IPCClient and IPCServer are the two exportable connection halves:
	// the connection this thread initiated and the one it accepted.
	IPCClient IPCState
	IPCServer IPCState

	// ExitWaiters holds threads in thread_wait (join) on this thread.
	ExitWaiters WaitQueue
	ExitCode    uint32
	Exited      bool

	// KCtx is the execution-model context (the process-model kernel
	// stack context); owned by internal/core.
	KCtx any

	// HostFn, when non-nil, makes this a kernel thread: instead of
	// interpreting user instructions, the kernel calls HostFn, which
	// charges simulated time and blocks via the normal kernel
	// primitives (used for the Table 6 high-priority latency thread).
	HostFn func() sys.KErr

	// InSyscall marks a system call in progress (dispatch re-entries
	// while set are counted as restarts).
	InSyscall bool

	// InKernelPark marks a process-model thread preempted in the middle
	// of kernel code (full-preemption configuration only); such a
	// thread must be settled before its state is exported.
	InKernelPark bool

	// EntryCycles counts cycles charged since the last committed
	// progress point of the current syscall; on a fault-induced restart
	// it is the work thrown away and redone (paper Table 3 rollback).
	EntryCycles uint64

	// PendingFault and PendingFaultSpace describe a fault a syscall
	// handler hit in user memory (KFault).
	PendingFault      cpu.Fault
	PendingFaultSpace *Space

	// FaultStart/FaultClass/FaultCross record an in-progress fault for
	// remedy-time accounting.
	FaultStart uint64
	FaultClass mmu.FaultClass
	FaultCross bool

	// CurSys is the syscall number the thread is currently dispatched
	// in, or -1 — the syscall dimension of profiler attribution
	// (maintained by internal/core when the profiler is enabled).
	CurSys int16

	// ProfPath is the kernel-path tag (a profile.Path) ambient kernel
	// charges on behalf of this thread are attributed to; 0 is the
	// generic kernel bucket. Set/restored around tagged stretches
	// (IPC copy, fault remedies, handle lookups) by internal/core.
	ProfPath uint8

	// Span is the causal IPC span the thread is currently part of
	// (0 = none), and SpanOwner marks the thread that minted it — the
	// client whose send opened the request. Maintained by internal/core
	// when Config.EnableIPCSpans is set.
	Span      uint32
	SpanOwner bool
}

// Runnable reports whether the scheduler may pick this thread.
func (t *Thread) Runnable() bool {
	return t.State == ThReady && !t.Stopped
}

// Mutex is Fluke's kernel-supported, cross-process mutex.
type Mutex struct {
	Header
	Locked  bool
	Holder  *Thread
	Waiters WaitQueue
}

// Cond is Fluke's kernel-supported condition variable.
type Cond struct {
	Header
	Waiters WaitQueue
}

// Region wraps an exportable mmu.Region; hard faults on it queue on
// FaultWaiters until a pager populates the page.
type Region struct {
	Header
	R *mmu.Region
	// FaultWaiters holds threads waiting for a user-mode pager to
	// populate a page of this region. Threads re-classify the fault on
	// wakeup, so a single queue per region suffices.
	FaultWaiters WaitQueue
	// PendingFaults are fault notifications queued for the pager, one
	// per (page) offset, delivered over the pager port.
	PendingFaults []uint32
	// pendingSet mirrors PendingFaults for O(1) duplicate suppression.
	// It is built lazily by QueuePendingFault so code (and tests) that
	// manipulate PendingFaults directly stay correct.
	pendingSet map[uint32]struct{}
}

// QueuePendingFault appends off to the pending-fault queue unless an
// identical notification is already queued; it reports whether the
// notification was newly queued.
func (r *Region) QueuePendingFault(off uint32) bool {
	if r.pendingSet == nil {
		r.pendingSet = make(map[uint32]struct{}, len(r.PendingFaults)+1)
		for _, o := range r.PendingFaults {
			r.pendingSet[o] = struct{}{}
		}
	}
	if _, dup := r.pendingSet[off]; dup {
		return false
	}
	r.pendingSet[off] = struct{}{}
	r.PendingFaults = append(r.PendingFaults, off)
	return true
}

// PopPendingFault removes and returns the oldest pending fault offset.
// The queue must be non-empty.
func (r *Region) PopPendingFault() uint32 {
	off := r.PendingFaults[0]
	r.PendingFaults = r.PendingFaults[1:]
	if r.pendingSet != nil {
		delete(r.pendingSet, off)
	}
	return off
}

// ClearPendingFault removes the queued notification for off, if any.
func (r *Region) ClearPendingFault(off uint32) {
	for j, pf := range r.PendingFaults {
		if pf == off {
			r.PendingFaults = append(r.PendingFaults[:j], r.PendingFaults[j+1:]...)
			if r.pendingSet != nil {
				delete(r.pendingSet, off)
			}
			return
		}
	}
}

// Mapping wraps an imported window of a Region in a destination space.
type Mapping struct {
	Header
	M *mmu.Mapping
	// Dst is the space the mapping is installed in (the mapping object
	// handle itself may live elsewhere).
	Dst *Space
}

// Port is the server-side endpoint of IPC connections.
type Port struct {
	Header
	Set *Portset
	// Connectors are client threads waiting for a server to accept.
	Connectors WaitQueue
	// FaultRegion, when non-nil, marks this port as the pager port for
	// that region: connection requests carry page-fault descriptors.
	FaultRegion *Region
}

// Portset is a set of ports a server thread waits on.
type Portset struct {
	Header
	Ports []*Port
	// Servers are threads in ipc_wait_receive / ipc_setup_wait.
	Servers WaitQueue
}

// AddPort links p into the set.
func (ps *Portset) AddPort(p *Port) sys.Errno {
	if p.Set != nil {
		return sys.EBUSY
	}
	p.Set = ps
	ps.Ports = append(ps.Ports, p)
	return sys.EOK
}

// RemovePort unlinks p.
func (ps *Portset) RemovePort(p *Port) sys.Errno {
	for i, x := range ps.Ports {
		if x == p {
			ps.Ports = append(ps.Ports[:i], ps.Ports[i+1:]...)
			p.Set = nil
			return sys.EOK
		}
	}
	return sys.ESRCH
}

// PendingPort returns a port in the set with a waiting connector, or nil.
func (ps *Portset) PendingPort() *Port {
	for _, p := range ps.Ports {
		if p.Connectors.Len() > 0 || (p.FaultRegion != nil && len(p.FaultRegion.PendingFaults) > 0) {
			return p
		}
	}
	return nil
}

// Ref is a cross-process handle on another object.
type Ref struct {
	Header
	Target Obj
}

// Space associates memory and threads (paper Table 2). It owns the handle
// table mapping virtual addresses to kernel objects.
type Space struct {
	Header
	AS      *mmu.AddrSpace
	Objects map[uint32]Obj
	Threads []*Thread
	// HomeCPU is the simulated CPU this space's threads are pinned to in
	// ParallelHost mode (threads of one space never step concurrently);
	// assigned round-robin by internal/core.
	HomeCPU int
	// StepMu serializes host access to AS in ParallelHost mode: the home
	// CPU holds it while batch-stepping a thread of this space outside the
	// kernel gate, and kernel code on another CPU takes it before touching
	// this space's memory (IPC copies, cross-space fault classification).
	// Unused (never contended) in the deterministic serial modes.
	StepMu sync.Mutex
	// ReapWaiters holds threads in space_reap_wait on this space.
	ReapWaiters WaitQueue
	// LockSlot is this space's object-lock slot in the kernel's lock
	// table under the fine-grained lock model (the paired MMU instance is
	// LockSlot+1); 0 means no per-space instances (the big lock, or
	// ParallelHost). Maintained by internal/core.
	LockSlot int
}

// NewSpace creates an empty space over the given address space.
func NewSpace(as *mmu.AddrSpace) *Space {
	s := &Space{AS: as, Objects: make(map[uint32]Obj)}
	s.Header = Header{Type: sys.ObjSpace, Owner: s}
	return s
}

// Insert binds an object to handle va in the space. The handle must be
// word-aligned and unused.
func (s *Space) Insert(va uint32, o Obj) sys.Errno {
	if va%4 != 0 {
		return sys.EINVAL
	}
	if _, exists := s.Objects[va]; exists {
		return sys.EBUSY
	}
	h := o.Hdr()
	h.VA = va
	h.Owner = s
	s.Objects[va] = o
	return sys.EOK
}

// Remove unbinds the handle at va.
func (s *Space) Remove(va uint32) {
	delete(s.Objects, va)
}

// At returns the object bound at va, or nil. Note: the *kernel's* handle
// resolution additionally requires the page holding va to be mapped (see
// core's objAt), which is what makes "short" syscalls fault and restart.
func (s *Space) At(va uint32) Obj {
	return s.Objects[va]
}

// ObjectsOfType counts live objects of type t in the space.
func (s *Space) ObjectsOfType(t sys.ObjType) int {
	n := 0
	for _, o := range s.Objects {
		if o.Hdr().Type == t && !o.Hdr().Dead {
			n++
		}
	}
	return n
}

// TypeOf returns the dynamic object type.
func TypeOf(o Obj) sys.ObjType { return o.Hdr().Type }

// New constructs an object of the given type with a zero-value body.
// Space and Thread objects need richer setup and are created by the
// kernel, not here.
func New(t sys.ObjType) (Obj, sys.Errno) {
	switch t {
	case sys.ObjMutex:
		return &Mutex{Header: Header{Type: t}}, sys.EOK
	case sys.ObjCond:
		return &Cond{Header: Header{Type: t}}, sys.EOK
	case sys.ObjPort:
		return &Port{Header: Header{Type: t}}, sys.EOK
	case sys.ObjPortset:
		return &Portset{Header: Header{Type: t}}, sys.EOK
	case sys.ObjRef:
		return &Ref{Header: Header{Type: t}}, sys.EOK
	case sys.ObjRegion:
		return &Region{Header: Header{Type: t}}, sys.EOK
	case sys.ObjMapping:
		return &Mapping{Header: Header{Type: t}}, sys.EOK
	default:
		// Space and Thread creation is kernel-mediated.
		return nil, sys.EINVAL
	}
}
