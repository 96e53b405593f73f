package core

import (
	"fmt"
	"unsafe"

	"repro/internal/clock"
	"repro/internal/cpu"
	"repro/internal/mem"
	"repro/internal/mmu"
	"repro/internal/obj"
	"repro/internal/profile"
	"repro/internal/sys"
	"repro/internal/trace"
)

// KObjBase is the start of the reserved per-space kernel-handle window the
// boot layer binds kernel-created objects into (the space's self handle,
// initial thread handles). The window is mapped eagerly so those handles
// never fault.
const KObjBase uint32 = 0xFFE0_0000

// KObjPages is the size of the reserved handle window in pages.
const KObjPages = 16

// NumIRQLines is the number of virtual interrupt lines irq_wait serves.
const NumIRQLines = 16

// FaultSide distinguishes whose address space an IPC-time fault hit
// (Table 3's "client-side" vs "server-side" rows).
type FaultSide int

const (
	// FaultSame: the fault was against the current thread's own space.
	FaultSame FaultSide = iota
	// FaultCross: the fault was against the IPC peer's space.
	FaultCross
)

// FaultKey indexes fault statistics: (class, side).
type FaultKey struct {
	Class mmu.FaultClass
	Side  FaultSide
}

// Stats aggregates kernel event counters and the cycle accounting the
// benchmark harness turns into the paper's tables.
type Stats struct {
	Syscalls        uint64
	SyscallsByNum   [sys.NumSyscalls]uint64
	ContextSwitches uint64
	UserCycles      uint64
	KernelCycles    uint64
	IdleCycles      uint64

	Restarts       uint64 // syscall re-entries after a fault
	FaultCount     map[FaultKey]uint64
	FaultRemedy    map[FaultKey]uint64 // cycles spent remedying
	FaultRollback  map[FaultKey]uint64 // cycles of work discarded and redone
	PreemptsUser   uint64              // preemptions taken at user-mode boundaries
	PreemptsPoint  uint64              // preemptions at explicit kernel preemption points
	PreemptsKernel uint64              // full-preemption parks inside the kernel
	Interrupts     uint64              // thread_interrupt deliveries (EINTR)
	TimerIRQs      uint64
	IPIs           uint64 // cross-CPU reschedule requests sent
	Steals         uint64 // threads taken from another CPU's queue

	// IPC fast-path counters (see Config.DisableIPCFastPath): direct
	// handoffs dispatched, rendezvous blocks with no peer ready, and
	// staged handoffs or register-carried transfers that fell back to the
	// slow path.
	FastpathHits      uint64
	FastpathMisses    uint64
	FastpathFallbacks uint64

	// Zero-copy bulk-transfer counters (see Config.DisableZeroCopy):
	// pages shared copy-on-write instead of copied, stores that broke a
	// share by copying the page, and eligible pages that fell back to
	// the copying path.
	ZeroCopyShares    uint64
	ZeroCopyCOWBreaks uint64
	ZeroCopyFallbacks uint64

	// ContinuationsRecognized counts operations the kernel completed by
	// mutating a waiter's explicit continuation instead of re-running it
	// (§2.2 continuation recognition; interrupt model with
	// Config.ContinuationRecognition).
	ContinuationsRecognized uint64
}

func newStats() Stats {
	return Stats{
		FaultCount:    make(map[FaultKey]uint64),
		FaultRemedy:   make(map[FaultKey]uint64),
		FaultRollback: make(map[FaultKey]uint64),
	}
}

// handler is one syscall implementation. It runs with t == Current(), and
// returns a kernel-internal result code; user-visible results are
// delivered only through t.Regs (paper Figure 4).
type handler func(k *Kernel, t *obj.Thread) sys.KErr

// Kernel is one simulated Fluke kernel instance.
type Kernel struct {
	cfg Config

	// Clock is CPU 0's local clock, kept as an exported field for
	// uniprocessor compatibility (host code, tests, benchmarks). With
	// NumCPUs > 1 use Now() for the virtual-time frontier and CPUNow for
	// per-CPU clocks.
	Clock *clock.Clock
	Alloc *mem.Allocator

	// cpus are the simulated processors; cur is the one whose kernel
	// context is executing right now (the ambient CPU). In the
	// deterministic interleaver exactly one CPU acts at a time; in
	// ParallelHost mode cur is only valid under the gate and is re-set at
	// every gate acquisition.
	cpus []*CPU
	cur  *CPU

	// vlocks is the lock-slot table (see locks.go): the four fixed
	// subsystem slots plus, under the fine model, per-run-queue and
	// per-space instances. lockKinds/lockNames parallel it.
	vlocks    []vlock
	lockKinds []lockID
	lockNames []string

	// chooser is the deterministic interleaver's min-clock heap over the
	// CPUs (clockheap.go); built lazily by RunUntil at NumCPUs > 1.
	chooser *clockHeap

	// par is the ParallelHost run state; nil in deterministic mode.
	par *parState

	stopAt uint64 // RunFor budget; forces descheduling of CPU-bound threads

	// nextHome round-robins new threads (and in ParallelHost mode new
	// spaces) across CPUs.
	nextHome      int
	nextSpaceHome int

	nextTID uint32
	threads map[uint32]*obj.Thread
	spaces  []*obj.Space

	irq        [NumIRQLines]obj.WaitQueue
	irqPending [NumIRQLines]bool // latched lines with no waiter

	handlers [sys.NumSyscalls]handler

	// sleepers is the shared wait queue for time-based blocking; timer
	// callbacks wake specific threads from it.
	sleepers obj.WaitQueue

	// Tracer, when non-nil, receives typed kernel events (see
	// internal/trace). Attach before running; costs one branch when nil.
	Tracer *trace.Ring

	// Metrics, when non-nil, receives hot-path instrument updates (see
	// EnableMetrics). Like the tracer it costs one branch when nil and
	// never perturbs virtual time.
	Metrics *KernelMetrics

	// prof, when non-nil, is the cycle-accurate virtual-time profiler:
	// every charge site mirrors its cycles into the acting CPU's shard
	// (profile.go). Like Metrics it costs one branch when nil and never
	// charges cycles itself.
	prof *profile.Profiler

	// spans enables causal IPC span tracking (Config.EnableIPCSpans);
	// nextSpan is the last span ID minted (span.go).
	spans    bool
	nextSpan uint32

	// stacksInUse tracks live kernel stacks for the memory accountant:
	// one per CPU in the interrupt model, one per live thread in the
	// process model.
	stacksInUse int

	// fastExec selects the batched StepN execution loop (see
	// Config.DisableFastPath).
	fastExec bool

	// ipcFast enables the IPC fast path — direct thread handoff with
	// register-carried small messages (see Config.DisableIPCFastPath).
	ipcFast bool

	// zeroCopy enables the zero-copy bulk-transfer path — copy-on-write
	// frame sharing for page-aligned runs (see Config.DisableZeroCopy).
	zeroCopy bool
}

// New creates a kernel with the given configuration. It panics on an
// invalid configuration (interrupt model + full preemption); use
// Config.Validate to check first.
func New(cfg Config) *Kernel {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	cfg = cfg.withDefaults()
	k := &Kernel{
		cfg:     cfg,
		Alloc:   mem.NewAllocator(cfg.PhysFrames),
		threads: make(map[uint32]*obj.Thread),
		nextTID: 1,
	}
	k.cpus = make([]*CPU, cfg.NumCPUs)
	for i := range k.cpus {
		k.cpus[i] = newCPU(k, i)
	}
	k.cur = k.cpus[0]
	k.Clock = k.cpus[0].clk
	if cfg.Model == ModelInterrupt {
		k.stacksInUse = cfg.NumCPUs // one kernel stack per simulated CPU
	}
	k.fastExec = !cfg.DisableFastPath
	k.ipcFast = !cfg.DisableIPCFastPath
	k.zeroCopy = !cfg.DisableZeroCopy
	k.spans = cfg.EnableIPCSpans
	if cfg.EnableProfiler {
		k.EnableProfiler()
	}
	if cfg.ParallelHost && cfg.NumCPUs > 1 {
		// The ParallelHost gate lives for the kernel's whole lifetime (not
		// per RunUntil call) so observation snapshots — Stats(),
		// ProfileSnapshot() — can lock it and read live state race-free.
		// Matches RunUntil's runParallel condition exactly: at one CPU the
		// serial loop runs and k.par must stay nil.
		k.par = newParState(cfg.NumCPUs)
	}
	k.initLockTable()
	k.registerHandlers()
	return k
}

// Config returns the kernel's configuration.
func (k *Kernel) Config() Config { return k.cfg }

// Current returns the thread running on the acting CPU (nil inside the
// scheduler).
func (k *Kernel) Current() *obj.Thread { return k.cur.current }

// ---------------------------------------------------------------------------
// Host ("boot loader") API: the operations a bootstrap environment performs
// before handing control to user programs. These do not charge simulated
// time.

// NewSpace creates a space with an empty address space plus the reserved
// kernel-handle window, and binds the space's self handle.
func (k *Kernel) NewSpace() *obj.Space {
	return k.newSpaceInternal()
}

// SetSpaceHome pins a space to CPU cpu: threads created in it afterwards
// inherit that home. Device attach code uses it to put each driver space
// (and so every thread that may touch the device's registers, and every
// timer the device arms on the space's home clock) on one chosen CPU —
// the single-writer discipline that makes MMIO devices safe under
// ParallelHost and lets multi-queue devices spread queues across CPUs.
func (k *Kernel) SetSpaceHome(s *obj.Space, cpu int) {
	if cpu < 0 || cpu >= len(k.cpus) {
		panic("core: SetSpaceHome CPU out of range")
	}
	s.HomeCPU = cpu
}

// CPUClock returns CPU i's local clock — the clock a device serving a
// space homed on CPU i must arm its timers on, so completions fire on
// the goroutine (ParallelHost) or virtual-time stream (deterministic
// interleaver) that owns the device's state.
func (k *Kernel) CPUClock(i int) *clock.Clock { return k.cpus[i].clk }

func (k *Kernel) newSpaceInternal() *obj.Space {
	s := obj.NewSpace(mmu.NewAddrSpaceTLB(k.Alloc, k.cfg.TLBSize))
	if k.fineSpaceLocks() {
		// Fine model: this space gets its own obj/mmu lock instance pair
		// (consecutive slots, obj first — spaceMMUSlot relies on that).
		n := itoa(len(k.spaces))
		s.LockSlot = k.addLockSlot(lockObj, "obj.s"+n, spanRingSize(len(k.cpus)))
		k.addLockSlot(lockMMU, "mmu.s"+n, spanRingSize(len(k.cpus)))
	}
	s.HomeCPU = k.nextSpaceHome
	k.nextSpaceHome = (k.nextSpaceHome + 1) % len(k.cpus)
	if k.cfg.DisableFastPath {
		s.AS.SetFastPaths(false)
	}
	if k.cfg.DisableThreadedCode {
		s.AS.SetThreadedCode(false)
	}
	// Reserved handle window: eagerly-mapped demand-zero pages.
	r := mmu.NewRegion(KObjPages*mem.PageSize, true)
	m := &mmu.Mapping{Region: r, Base: KObjBase, Size: r.Size, Perm: mmu.PermRW}
	if err := s.AS.Map(m); err != nil {
		panic(err)
	}
	for p := uint32(0); p < KObjPages; p++ {
		if err := s.AS.ResolveSoft(KObjBase+p*mem.PageSize, cpu.Write); err != nil {
			panic(err)
		}
	}
	s.Header.Type = sys.ObjSpace
	if e := s.Insert(KObjBase, s); e != sys.EOK {
		panic(e)
	}
	k.spaces = append(k.spaces, s)
	return s
}

// Spaces returns all spaces ever created on this kernel.
func (k *Kernel) Spaces() []*obj.Space { return k.spaces }

// ExecStats sums the decode-cache and fused-block counters across every
// space. Host-side diagnostics only: these never feed back into
// simulated state, so reading them is always safe.
func (k *Kernel) ExecStats() cpu.ExecStats {
	var total cpu.ExecStats
	for _, s := range k.spaces {
		total.Add(s.AS.ExecStats())
	}
	return total
}

// kernelHandleVA hands out slots in the reserved handle window.
func kernelHandleVA(s *obj.Space) uint32 {
	for va := KObjBase + 4; va < KObjBase+KObjPages*mem.PageSize; va += 4 {
		if s.At(va) == nil {
			return va
		}
	}
	panic("core: kernel handle window exhausted")
}

// NewThread creates a thread in space s at the given priority, bound into
// the reserved handle window. The thread starts stopped with zeroed
// registers; set its registers and call StartThread.
func (k *Kernel) NewThread(s *obj.Space, priority int) *obj.Thread {
	t := k.makeThread(s, priority)
	if e := s.Insert(kernelHandleVA(s), t); e != sys.EOK {
		panic(e)
	}
	return t
}

// makeThread builds an unbound, stopped thread: the common substrate of
// the host NewThread and the thread_create syscall.
func (k *Kernel) makeThread(s *obj.Space, priority int) *obj.Thread {
	t := &obj.Thread{
		Header:   obj.Header{Type: sys.ObjThread},
		ID:       k.nextTID,
		Space:    s,
		Priority: priority,
		State:    obj.ThReady,
		Stopped:  true,
		CurSys:   profile.NoSyscall, // outside any syscall
	}
	if k.cfg.ParallelHost {
		// Space affinity: threads of one space all live on the space's
		// home CPU, so a space is only ever stepped by one host goroutine.
		t.HomeCPU = s.HomeCPU
	} else {
		t.HomeCPU = k.nextHome
		k.nextHome = (k.nextHome + 1) % len(k.cpus)
	}
	k.nextTID++
	s.Threads = append(s.Threads, t)
	k.threads[t.ID] = t
	if k.Metrics != nil {
		k.Metrics.ThreadsCreated.Inc()
		k.Metrics.ThreadsLive.Add(1)
	}
	if k.cfg.Model == ModelProcess {
		k.newKctx(t)
		k.stacksInUse++
	}
	return t
}

// Threads returns the live thread table.
func (k *Kernel) Threads() map[uint32]*obj.Thread { return k.threads }

// StartThread makes a (stopped) thread runnable.
func (k *Kernel) StartThread(t *obj.Thread) {
	if t.State == obj.ThDead {
		panic("core: starting dead thread")
	}
	t.Stopped = false
	if t.State == obj.ThReady {
		k.schedEnqueue(k.cur, t)
	}
}

// BindFresh installs an object at a fresh handle slot in the space's
// reserved kernel window and returns the handle VA.
func (k *Kernel) BindFresh(s *obj.Space, o obj.Obj) uint32 {
	va := kernelHandleVA(s)
	if e := s.Insert(va, o); e != sys.EOK {
		panic(e)
	}
	return va
}

// Bind installs an object at a handle VA in a space (host-level Insert).
func (k *Kernel) Bind(s *obj.Space, va uint32, o obj.Obj) error {
	if e := s.Insert(va, o); e != sys.EOK {
		return fmt.Errorf("core: bind %v at %#x: %v", obj.TypeOf(o), va, e)
	}
	return nil
}

// NewBoundRegion creates a Region object of size bytes backed by a
// demand-zero (pager == nil) or pager-backed mmu region, bound at handle
// va in s.
func (k *Kernel) NewBoundRegion(s *obj.Space, va uint32, size uint32, demandZero bool) (*obj.Region, error) {
	r := &obj.Region{
		Header: obj.Header{Type: sys.ObjRegion},
		R:      mmu.NewRegion(size, demandZero),
	}
	if err := k.Bind(s, va, r); err != nil {
		return nil, err
	}
	return r, nil
}

// AttachPager marks port p as the pager for region r: absent pages of r
// become hard faults delivered to p.
func (k *Kernel) AttachPager(r *obj.Region, p *obj.Port) {
	r.R.Pager = p
	r.R.DemandZero = false
	p.FaultRegion = r
}

// MapInto installs a window of region r into space s. The mapping object
// is bound into s's reserved handle window.
func (k *Kernel) MapInto(s *obj.Space, r *obj.Region, base, off, size uint32, perm mmu.Perm) (*obj.Mapping, error) {
	mm := &mmu.Mapping{Region: r.R, RegionOff: off, Base: base, Size: size, Perm: perm}
	if err := s.AS.Map(mm); err != nil {
		return nil, err
	}
	om := &obj.Mapping{Header: obj.Header{Type: sys.ObjMapping}, M: mm, Dst: s}
	if e := s.Insert(kernelHandleVA(s), om); e != sys.EOK {
		return nil, fmt.Errorf("core: bind mapping: %v", e)
	}
	return om, nil
}

// LoadImage creates a demand-zero region of at least len(image) bytes,
// maps it RWX at base in s, and copies the image in (pages become
// present). It returns the backing region object.
func (k *Kernel) LoadImage(s *obj.Space, base uint32, image []byte) (*obj.Region, error) {
	size := mem.PageRound(uint32(len(image)))
	if size == 0 {
		size = mem.PageSize
	}
	r := &obj.Region{Header: obj.Header{Type: sys.ObjRegion}, R: mmu.NewRegion(size, true)}
	if _, err := k.MapInto(s, r, base, 0, size, mmu.PermRWX); err != nil {
		return nil, err
	}
	if err := k.WriteMem(s, base, image); err != nil {
		return nil, err
	}
	return r, nil
}

// SpawnProgram loads an assembled image at base into s and creates a
// started thread entering at base with the given priority.
func (k *Kernel) SpawnProgram(s *obj.Space, base uint32, image []byte, priority int) (*obj.Thread, error) {
	if _, err := k.LoadImage(s, base, image); err != nil {
		return nil, err
	}
	t := k.NewThread(s, priority)
	t.Regs.PC = base
	k.StartThread(t)
	return t, nil
}

// WriteMem copies host bytes into guest memory, resolving soft faults
// directly (boot-loader powers). It fails on hard or fatal faults. The
// first byte touched in each page takes the faulting store path — it
// counts, resolves and dirty-logs exactly what a guest store would — and
// the rest of the page follows through a direct window when the space
// grants one (not with fast paths off or device windows mapped; then
// every byte takes the store path).
func (k *Kernel) WriteMem(s *obj.Space, va uint32, data []byte) error {
	for i := 0; i < len(data); {
		a := va + uint32(i)
		if f := s.AS.Store8(a, data[i]); f != nil {
			cl, _ := s.AS.Classify(a, cpu.Write)
			if cl != mmu.FaultSoft {
				return fmt.Errorf("core: WriteMem at %#x: %v fault", a, cl)
			}
			if err := s.AS.ResolveSoft(a, cpu.Write); err != nil {
				return err
			}
			if f := s.AS.Store8(a, data[i]); f != nil {
				return fmt.Errorf("core: WriteMem at %#x: fault persists", a)
			}
		}
		i++
		i += copy(s.AS.DirectWindow(a+1, cpu.Write, pageRest(a, len(data)-i)), data[i:])
	}
	return nil
}

// ReadMem copies guest memory to host bytes, resolving soft faults; it
// walks pages the way WriteMem does.
func (k *Kernel) ReadMem(s *obj.Space, va uint32, n int) ([]byte, error) {
	out := make([]byte, n)
	for i := 0; i < n; {
		a := va + uint32(i)
		b, f := s.AS.Load8(a)
		if f != nil {
			cl, _ := s.AS.Classify(a, cpu.Read)
			if cl != mmu.FaultSoft {
				return nil, fmt.Errorf("core: ReadMem at %#x: %v fault", a, cl)
			}
			if err := s.AS.ResolveSoft(a, cpu.Read); err != nil {
				return nil, err
			}
			b, f = s.AS.Load8(a)
			if f != nil {
				return nil, fmt.Errorf("core: ReadMem at %#x: fault persists", a)
			}
		}
		out[i] = b
		i++
		i += copy(out[i:], s.AS.DirectWindow(a+1, cpu.Read, pageRest(a, n-i)))
	}
	return out, nil
}

// pageRest is how many of the n bytes after address a share a's page.
func pageRest(a uint32, n int) uint32 {
	rest := mem.PageMask - a&mem.PageMask
	if n < int(rest) {
		return uint32(n)
	}
	return rest
}

// RaiseIRQ wakes all threads blocked in irq_wait on the given line. The
// line is latched: if nothing is waiting, the next irq_wait completes
// immediately — a driver preempted between programming its device and
// waiting must not lose the edge.
func (k *Kernel) RaiseIRQ(line int) {
	if line < 0 || line >= NumIRQLines {
		panic(fmt.Sprintf("core: IRQ line %d out of range", line))
	}
	k.emit(trace.IRQ, uint32(line), 0)
	if k.irq[line].Len() == 0 {
		k.irqPending[line] = true
		return
	}
	for k.irq[line].Len() > 0 {
		k.wakeOne(&k.irq[line])
	}
}

// Shutdown destroys every remaining thread (unwinding process-model
// kernel-stack contexts so their goroutines exit) and cancels pending
// timers. The kernel is not usable afterwards.
func (k *Kernel) Shutdown() {
	// Collect victims once rather than re-scanning the table per kill —
	// the old loop was O(threads²), which shows at 64-CPU thread counts.
	// DestroyThread can cascade (a dying thread wakes and kills waiters),
	// so re-collect until the table is empty.
	victims := make([]*obj.Thread, 0, len(k.threads))
	for len(k.threads) > 0 {
		victims = victims[:0]
		for _, t := range k.threads {
			victims = append(victims, t)
		}
		for _, t := range victims {
			if _, live := k.threads[t.ID]; live {
				k.DestroyThread(t)
			}
		}
	}
	for _, c := range k.cpus {
		c.stopSliceTimer()
	}
}

// ---------------------------------------------------------------------------
// Memory accounting (paper Table 7).

// TCBSize is the measured size in bytes of this kernel's thread control
// block (the Thread object).
func TCBSize() int {
	return int(unsafe.Sizeof(obj.Thread{}))
}

// MemOverhead reports the kernel's per-thread memory overhead in bytes for
// this configuration: the TCB plus, in the process model, the per-thread
// kernel stack. In the interrupt model the per-CPU stack is not a
// per-thread cost, matching Table 7's "—" entry.
func (k *Kernel) MemOverhead() (tcb, stack, total int) {
	tcb = TCBSize()
	if k.cfg.Model == ModelProcess {
		stack = k.cfg.KernelStackSize
	}
	return tcb, stack, tcb + stack
}

// KernelStackBytes returns the total bytes in kernel stacks right now:
// stacks * configured stack size.
func (k *Kernel) KernelStackBytes() int {
	return k.stacksInUse * k.cfg.KernelStackSize
}

// StacksInUse returns the number of live kernel stacks.
func (k *Kernel) StacksInUse() int { return k.stacksInUse }
