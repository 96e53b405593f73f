package core

import (
	"repro/internal/metrics"
	"repro/internal/mmu"
	"repro/internal/sys"
)

// This file wires the metrics registry (internal/metrics) into the
// kernel's hot paths. Every instrument is registered up front in
// NewKernelMetrics, so the paths in exec.go / ipc_support.go only ever
// dereference pre-built pointers — with no registry attached
// (k.Metrics == nil) each site costs a single branch, and the simulated
// timeline is bit-identical either way because metrics never charge
// cycles (pinned by TestMetricsDoNotPerturbVirtualTime).

// NumFaultCauses is the number of Table 3 exception-cause classes:
// {soft, hard} × {client-side, server-side}.
const NumFaultCauses = 4

// FaultCauseNames are the class names in causeIndex order.
var FaultCauseNames = [NumFaultCauses]string{
	"soft.client", "soft.server", "hard.client", "hard.server",
}

// causeIndex maps a restartable fault to its Table 3 cause class.
// Fatal faults have no restart semantics and are counted separately.
func causeIndex(class mmu.FaultClass, side FaultSide) int {
	i := 0
	if class == mmu.FaultHard {
		i = 2
	}
	if side == FaultCross {
		i++
	}
	return i
}

// KernelMetrics is the kernel's instrument bundle: every counter, gauge,
// and histogram the hot paths update, pre-registered so updates are
// pointer dereferences. Attach with Kernel.EnableMetrics (or build one
// on a shared registry with NewKernelMetrics and assign k.Metrics).
type KernelMetrics struct {
	Registry *metrics.Registry

	// SyscallLatency has one log2-cycle histogram per syscall number,
	// observing entry-to-completion time of each completed dispatch
	// episode (in the process model that includes any time parked on
	// the thread's kernel stack — the user-visible call latency).
	SyscallLatency [sys.NumSyscalls]*metrics.Histogram

	// Restarts counts restartable kernel-internal exceptions by Table 3
	// cause class; after each, the operation re-runs from its
	// rolled-forward registers. RollbackCycles accumulates the work
	// discarded (Table 3 "Cost to Rollback" numerator), RemedyCycles the
	// time to service the fault ("Cost to Remedy").
	Restarts       [NumFaultCauses]*metrics.Counter
	RollbackCycles [NumFaultCauses]*metrics.Counter
	RemedyCycles   [NumFaultCauses]*metrics.Counter
	RestartsTotal  *metrics.Counter // syscall re-entries after any fault
	FaultsFatal    *metrics.Counter

	CtxSwitches *metrics.Counter
	Wakes       *metrics.Counter
	TimerIRQs   *metrics.Counter

	// PreemptLatency observes, at each context switch, the cycles from
	// the moment a reschedule was requested (higher-priority wake or
	// quantum expiry) to the switch that serviced it — the in-kernel
	// view of Table 6's probe latency.
	PreemptLatency *metrics.Histogram
	PreemptsUser   *metrics.Counter
	PreemptsPoint  *metrics.Counter
	PreemptsKernel *metrics.Counter

	IPCBytes     *metrics.Counter // payload bytes moved by CopyWords
	IPCTransfers *metrics.Counter // CopyWords invocations
	Commits      *metrics.Counter // roll-forward progress commits

	// IPC fast-path counters (the direct thread handoff): hits are
	// handoffs dispatched, misses are rendezvous blocks where the peer was
	// not already waiting, fallbacks are staged handoffs demoted to a
	// normal wake (donor kept running, slot occupied) plus
	// register-carried transfers that faulted back to the slow path.
	FastpathHits      *metrics.Counter
	FastpathMisses    *metrics.Counter
	FastpathFallbacks *metrics.Counter

	// Zero-copy bulk-transfer counters: shares are pages moved by
	// aliasing the sender's frame into the receiver's region, cowbreaks
	// are stores that broke a share by copying the page, fallbacks are
	// page-aligned eligible pages that had to take the copying path
	// anyway (unresolvable translations, MMIO windows, self-transfers).
	ZeroCopyShares    *metrics.Counter
	ZeroCopyCOWBreaks *metrics.Counter
	ZeroCopyFallbacks *metrics.Counter

	PagerNotices *metrics.Counter // hard-fault notifications queued to pagers

	ThreadsLive    *metrics.Gauge
	ThreadsCreated *metrics.Counter

	// Lock-model instruments, one per lock kind (LockKindNames order).
	// Under LockBig everything maps to the "big" slot; under LockFine
	// the sched/obj/mmu kinds are live. Contention is virtual-time
	// contention: an acquire that found the lock's busy-until point ahead
	// of the acquiring CPU's clock.
	LockAcquires   [NumLockKinds]*metrics.Counter
	LockContended  [NumLockKinds]*metrics.Counter
	LockWaitCycles [NumLockKinds]*metrics.Counter
	LockHoldCycles [NumLockKinds]*metrics.Histogram

	IPIs   *metrics.Counter // cross-CPU reschedule kicks sent
	Steals *metrics.Counter // threads taken from a peer's run queue

	// Checkpoint/migration instruments, updated by internal/checkpoint
	// (a user-level manager, so these never sit on an execution hot
	// path): full and delta snapshots taken, frame payloads captured vs
	// skipped because the dirty tracker proved them unchanged, and the
	// simulated stop-to-resume cycles of pre-copy migrations.
	CkptSnapshots      *metrics.Counter
	CkptDeltaSnapshots *metrics.Counter
	CkptFramesCaptured *metrics.Counter
	CkptFramesClean    *metrics.Counter
	CkptDowntimeCycles *metrics.Counter

	// TraceDropped mirrors the trace ring's overwrite count
	// (trace.Ring.Dropped) so exported metric snapshots declare how much
	// of the trace a wrapped ring lost. The ring keeps its own counter
	// on the hot path; SyncTraceMetrics copies it in at snapshot time.
	TraceDropped *metrics.Gauge

	// Interpreter-tier mirrors (cpu.ExecStats aggregated over spaces):
	// decode-cache and fused-block activity. The address spaces keep the
	// live counters on the hot path; SyncTraceMetrics copies them in at
	// snapshot time, so the interpreter never touches the registry.
	DecodePages        *metrics.Gauge // cpu.decode.pages
	DecodeStaleResets  *metrics.Gauge // cpu.decode.stale_resets
	BlocksBuilt        *metrics.Gauge // cpu.blocks.built
	BlockHits          *metrics.Gauge // cpu.blocks.hits
	LoopPasses         *metrics.Gauge // cpu.blocks.loop_passes (of the hits)
	BlockBails         *metrics.Gauge // cpu.blocks.bails
	BlockInvalidations *metrics.Gauge // cpu.blocks.invalidations
}

// NewKernelMetrics registers the kernel's instruments on reg (a fresh
// registry if nil) and returns the bundle. All allocation happens here.
func NewKernelMetrics(reg *metrics.Registry) *KernelMetrics {
	if reg == nil {
		reg = metrics.New()
	}
	m := &KernelMetrics{Registry: reg}
	for n := 0; n < sys.NumSyscalls; n++ {
		m.SyscallLatency[n] = reg.Histogram("syscall.latency." + sys.Name(n))
	}
	for i, name := range FaultCauseNames {
		m.Restarts[i] = reg.Counter("fault.restarts." + name)
		m.RollbackCycles[i] = reg.Counter("fault.rollback_cycles." + name)
		m.RemedyCycles[i] = reg.Counter("fault.remedy_cycles." + name)
	}
	m.RestartsTotal = reg.Counter("syscall.restarts")
	m.FaultsFatal = reg.Counter("fault.fatal")
	m.CtxSwitches = reg.Counter("sched.context_switches")
	m.Wakes = reg.Counter("sched.wakes")
	m.TimerIRQs = reg.Counter("sched.timer_irqs")
	m.PreemptLatency = reg.Histogram("sched.preempt_latency")
	m.PreemptsUser = reg.Counter("sched.preempts.user_boundary")
	m.PreemptsPoint = reg.Counter("sched.preempts.explicit_point")
	m.PreemptsKernel = reg.Counter("sched.preempts.in_kernel")
	m.IPCBytes = reg.Counter("ipc.bytes")
	m.IPCTransfers = reg.Counter("ipc.transfers")
	m.Commits = reg.Counter("ipc.rollforward_commits")
	m.FastpathHits = reg.Counter("ipc.fastpath.hits")
	m.FastpathMisses = reg.Counter("ipc.fastpath.misses")
	m.FastpathFallbacks = reg.Counter("ipc.fastpath.fallbacks")
	m.ZeroCopyShares = reg.Counter("ipc.zerocopy.shares")
	m.ZeroCopyCOWBreaks = reg.Counter("ipc.zerocopy.cowbreaks")
	m.ZeroCopyFallbacks = reg.Counter("ipc.zerocopy.fallbacks")
	m.PagerNotices = reg.Counter("pager.fault_notices")
	m.ThreadsLive = reg.Gauge("threads.live")
	m.ThreadsCreated = reg.Counter("threads.created")
	for i, name := range LockKindNames {
		m.LockAcquires[i] = reg.Counter("lock.acquires." + name)
		m.LockContended[i] = reg.Counter("lock.contended." + name)
		m.LockWaitCycles[i] = reg.Counter("lock.wait_cycles." + name)
		m.LockHoldCycles[i] = reg.Histogram("lock.hold_cycles." + name)
	}
	m.IPIs = reg.Counter("sched.ipis")
	m.Steals = reg.Counter("sched.steals")
	m.CkptSnapshots = reg.Counter("ckpt.snapshots")
	m.CkptDeltaSnapshots = reg.Counter("ckpt.delta_snapshots")
	m.CkptFramesCaptured = reg.Counter("ckpt.frames_captured")
	m.CkptFramesClean = reg.Counter("ckpt.frames_skipped_clean")
	m.CkptDowntimeCycles = reg.Counter("ckpt.migrate.downtime_cycles")
	m.TraceDropped = reg.Gauge("trace.dropped")
	m.DecodePages = reg.Gauge("cpu.decode.pages")
	m.DecodeStaleResets = reg.Gauge("cpu.decode.stale_resets")
	m.BlocksBuilt = reg.Gauge("cpu.blocks.built")
	m.BlockHits = reg.Gauge("cpu.blocks.hits")
	m.LoopPasses = reg.Gauge("cpu.blocks.loop_passes")
	m.BlockBails = reg.Gauge("cpu.blocks.bails")
	m.BlockInvalidations = reg.Gauge("cpu.blocks.invalidations")
	return m
}

// SyncTraceMetrics refreshes the metrics that mirror other observability
// layers: the trace ring's dropped-event count and the interpreter's
// decode/fused-block counters. Call before rendering or exporting a
// metrics snapshot.
func (k *Kernel) SyncTraceMetrics() {
	if k.Metrics == nil {
		return
	}
	if k.Tracer != nil {
		k.Metrics.TraceDropped.Set(int64(k.Tracer.Dropped()))
	}
	es := k.ExecStats()
	k.Metrics.DecodePages.Set(int64(es.PagesDecoded))
	k.Metrics.DecodeStaleResets.Set(int64(es.StaleResets))
	k.Metrics.BlocksBuilt.Set(int64(es.BlocksBuilt))
	k.Metrics.BlockHits.Set(int64(es.BlockHits))
	k.Metrics.LoopPasses.Set(int64(es.LoopPasses))
	k.Metrics.BlockBails.Set(int64(es.BlockBails))
	k.Metrics.BlockInvalidations.Set(int64(es.BlockInvalidations))
}

// RestartsByCause returns the restart counts in FaultCauseNames order —
// the Table 3 cross-check surface.
func (m *KernelMetrics) RestartsByCause() [NumFaultCauses]uint64 {
	var out [NumFaultCauses]uint64
	for i, c := range m.Restarts {
		out[i] = c.Value()
	}
	return out
}

// EnableMetrics attaches a fresh metrics bundle to the kernel (idempotent:
// an already-attached bundle is returned unchanged). Enable before
// running; threads created earlier are not retroactively counted.
func (k *Kernel) EnableMetrics() *KernelMetrics {
	if k.Metrics == nil {
		k.Metrics = NewKernelMetrics(nil)
	}
	return k.Metrics
}

// countFaultRestart records a restartable fault's cause-class restart
// and the rolled-back cycles it discards.
func (k *Kernel) countFaultRestart(class mmu.FaultClass, side FaultSide, rollback uint64) {
	if k.Metrics == nil {
		return
	}
	ci := causeIndex(class, side)
	k.Metrics.Restarts[ci].Inc()
	k.Metrics.RollbackCycles[ci].Add(rollback)
}

// countFaultRemedy records cycles spent servicing a fault of the given
// cause class.
func (k *Kernel) countFaultRemedy(class mmu.FaultClass, side FaultSide, cycles uint64) {
	if k.Metrics == nil {
		return
	}
	k.Metrics.RemedyCycles[causeIndex(class, side)].Add(cycles)
}
