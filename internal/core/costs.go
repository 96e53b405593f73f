package core

// The kernel cost model, in cycles of the simulated 200 MHz processor
// (200 cycles = 1 µs). Constants are calibrated so the regenerated tables
// land near the paper's published numbers; EXPERIMENTS.md records the
// calibration targets next to the measurements.
const (
	// CycSyscallEntry + CycSyscallExit model the "minimal
	// hardware-mandated cost of entering and leaving supervisor mode
	// [of] about 70 cycles" (paper §5.5).
	CycSyscallEntry = 40
	CycSyscallExit  = 30

	// CycInterruptEntryExtra/ExitExtra are the architectural-bias cost
	// of the interrupt model on a process-model-biased CPU: "moving the
	// saved state from the kernel stack to the thread structure on
	// entry, and back again on exit, amounts to about six cycles"
	// (paper §5.5).
	CycInterruptEntryExtra = 3
	CycInterruptExitExtra  = 3

	// CycCtxSwitchBase is the model-independent context switch cost
	// (queue manipulation, address space switch).
	CycCtxSwitchBase = 60

	// CycDirectSwitch is the cost of the IPC fast path's direct thread
	// handoff: when the peer is already blocked in the matching receive
	// phase the kernel switches to it straight from the sender's episode
	// — no run-queue enqueue, no scheduler pass, no slice-timer re-arm
	// (the peer inherits the donor's slice), and in the process model no
	// kernel-register save (the donor is blocking anyway, so its kernel
	// context is parked, not switched out). L4-family kernels report
	// this path at a fraction of the general switch; we model it at half
	// CycCtxSwitchBase.
	CycDirectSwitch = 30

	// FastMsgWords is the largest message (in 32-bit words) the fast
	// path carries through the peer's register file with no memory-copy
	// charge — the classic register-carried short-IPC window (8 words ≈
	// the general-purpose registers an L4-style kernel leaves free).
	FastMsgWords = 8

	// CycKernelRedispatch is the cost of re-entering a syscall handler
	// for a woken thread whose registers name a restart continuation:
	// the scheduler calls the handler directly, without crossing the
	// user/kernel privilege boundary.
	CycKernelRedispatch = 12

	// CycProcessKregSave is the process-model-only context-switch cost
	// the interrupt model eliminates: saving and restoring kernel-mode
	// register state ("six 32-bit memory reads and writes on every
	// context switch", §5.3) plus the stack switch and its associated
	// cache/TLB traffic. Calibration target: the interrupt model's
	// ~6% advantage on the switch-heavy flukeperf workload (Table 5).
	CycProcessKregSave = 90

	// CycKernelLock is the per-syscall cost of kernel locking in the
	// fully-preemptible configuration, which "requires blocking mutex
	// locks for kernel locking" (paper Table 4). NP and PP
	// configurations require no kernel locking and do not pay it.
	// Calibration target: FP's 5-20% slowdown in Table 5.
	CycKernelLock = 35

	// CycObjLookup is the handle-table lookup cost per object resolved.
	CycObjLookup = 12

	// CycCopyWord is the IPC data copy cost per 32-bit word.
	CycCopyWord = 2

	// PageWords is one page in 32-bit words (the unit of the zero-copy
	// share and COW-break charges).
	PageWords = 1024

	// CycPageShare is the zero-copy transfer cost per page: repointing
	// one region slot at the sender's frame, adjusting the refcount and
	// shooting write permission out of the cached translations — page-
	// table manipulation instead of a 1024-word copy (CycCopyWord would
	// charge 2048 cycles for the same page).
	CycPageShare = 40

	// CycCOWBreak is the fixed kernel cost of breaking a copy-on-write
	// share on the first store to a shared page — fault entry aside:
	// allocating the private frame and re-deriving translations. The
	// page copy itself is charged on top at CycCopyWord·PageWords.
	CycCOWBreak = 300

	// ZeroCopyMinPages is the smallest page-aligned run the zero-copy
	// path will share rather than copy. Below it the fixed per-page
	// share-and-protect work plus the risk of COW breaks is not worth
	// the saved copy.
	ZeroCopyMinPages = 2

	// CycPreemptPoint is the cost of one explicit preemption check on
	// the IPC copy path.
	CycPreemptPoint = 2

	// PreemptPointBytes is how often the IPC copy path checks for
	// preemption in the PP configurations: "checked after every 8k of
	// data" (paper Table 4).
	PreemptPointBytes = 8192

	// CycSoftFaultRemedy is the kernel-internal cost of deriving and
	// installing a PTE from the mapping hierarchy. Calibration target:
	// client-side soft fault remedy = 18.9 µs (Table 3).
	CycSoftFaultRemedy = 3700

	// CycCrossSpaceFaultExtra is the additional bookkeeping when the
	// fault is taken against the *other* side's address space during
	// IPC (server-side faults in Table 3: 29.3 µs vs 18.9 µs soft).
	CycCrossSpaceFaultExtra = 2100

	// CycHardFaultKernel is the kernel-side overhead of a hard fault —
	// building the exception IPC to the user-mode manager and waking
	// waiters afterwards — excluding the pager's own execution and the
	// context switches, which the simulation performs for real.
	// Calibration target: client-side hard fault remedy = 118 µs
	// (Table 3).
	CycHardFaultKernel = 23000

	// CycFaultLockSoftFP and CycFaultLockHardFP are the additional
	// kernel-lock traffic of the fault-handling path in the
	// fully-preemptible configuration (the mapping hierarchy must be
	// locked with blocking mutexes). Calibration target: FP's 11%
	// slowdown on the fault-dominated memtest workload (Table 5).
	CycFaultLockSoftFP = 1200
	CycFaultLockHardFP = 4800

	// CycFaultDeliver is the cost of queueing one fault notification to
	// the pager port.
	CycFaultDeliver = 400

	// CycTimerIRQ is the cost of fielding one timer interrupt.
	CycTimerIRQ = 80

	// CycIPCConnect is the connection-establishment work on the IPC
	// path beyond copying (port/portset queue manipulation).
	CycIPCConnect = 120

	// CycRegionSearchPage is the per-page scan cost of region_search,
	// the paper's example of a long-running non-IPC multi-stage call.
	// region_search has *stage* boundaries (its registers roll forward
	// every RegionSearchChunkPages) but no PP preemption point — in the
	// paper the single explicit preemption point is on the IPC data
	// copy path only — so it bounds PP preemption latency in Table 6.
	CycRegionSearchPage = 60

	// RegionSearchChunkPages is how many pages region_search scans per
	// atomic stage.
	RegionSearchChunkPages = 1024

	// CycGetSetState is the cost of marshaling a thread state frame.
	CycGetSetState = 150
)
