package core

import (
	"fmt"

	"repro/internal/cpu"
	"repro/internal/mem"
	"repro/internal/mmu"
	"repro/internal/obj"
	"repro/internal/profile"
	"repro/internal/sys"
	"repro/internal/trace"
)

// This file is the execution-model machinery — the counterpart of the
// "two hundred assembly language instructions in the system call entry and
// exit code, and about fifty lines of C in the context switching ...
// code" that differ between Fluke's two builds (paper §3.1). Everything
// else in the kernel is model-independent.
//
// Multiprocessor execution: the kernel holds one CPU struct per simulated
// processor (cpu.go). By default the CPUs are interleaved *serially* and
// deterministically — the loop always runs the CPU with the smallest local
// virtual time — so every multi-CPU run is reproducible and the
// NumCPUs==1 case degenerates to exactly the uniprocessor loop.
// Config.ParallelHost (parallel.go) instead runs one host goroutine per
// CPU with kernel sections serialized under a gate mutex.
//
// Kernel code addresses "the CPU I am running on" through k.cur, never
// through a captured variable: a process-model thread can park on one CPU
// and — woken and stolen — resume on another, so the acting CPU must be
// re-read after every potential park point.

// fpChunk is the cycle granularity at which fully-preemptible kernel code
// checks for preemption; it bounds FP preemption latency (Table 6's
// 19.6 µs max).
const fpChunk = 2000

// killSignal unwinds a process-model kernel-stack context when its thread
// is destroyed while parked.
type killSignal struct{}

type resumeKind uint8

const (
	resumeRun resumeKind = iota
	resumeKill
)

type yieldKind uint8

const (
	yBlocked yieldKind = iota
	yReady
	yDead
)

// kctx is a process-model kernel-stack context: a goroutine whose retained
// Go stack plays the role of the thread's kernel stack. Exactly one
// context (or the scheduler) runs at a time — control passes by baton, so
// the simulation stays deterministic.
type kctx struct {
	t      *obj.Thread
	resume chan resumeKind
	yield  chan struct{}
	reason yieldKind
	done   bool
}

func (k *Kernel) newKctx(t *obj.Thread) {
	c := &kctx{t: t, resume: make(chan resumeKind), yield: make(chan struct{})}
	t.KCtx = c
	go k.threadBody(c)
}

// threadBody is the root of a process-model kernel stack.
func (k *Kernel) threadBody(c *kctx) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(killSignal); !ok {
				panic(r)
			}
		}
		c.reason = yDead
		c.yield <- struct{}{}
	}()
	if <-c.resume == resumeKill {
		panic(killSignal{})
	}
	k.runThread(c.t)
}

// yieldProcess parks the current process-model context, handing the baton
// back to whoever resumed it. It panics with killSignal if the thread is
// destroyed while parked.
func (k *Kernel) yieldProcess(t *obj.Thread, reason yieldKind) {
	c := t.KCtx.(*kctx)
	c.reason = reason
	c.yield <- struct{}{}
	if <-c.resume == resumeKill {
		panic(killSignal{})
	}
}

// resumeCtx hands the baton to t's context and waits for its next yield.
func (k *Kernel) resumeCtx(t *obj.Thread, kind resumeKind) yieldKind {
	c := t.KCtx.(*kctx)
	c.resume <- kind
	<-c.yield
	return c.reason
}

// reapCtx releases the kernel-stack accounting for a dead context.
func (k *Kernel) reapCtx(t *obj.Thread) {
	c, ok := t.KCtx.(*kctx)
	if !ok || c.done {
		return
	}
	c.done = true
	k.stacksInUse--
}

// emit records a typed trace event when a tracer is attached, tagged with
// the acting CPU (its Perfetto lane) and that CPU's local clock.
func (k *Kernel) emit(kind trace.Kind, a, b uint32) {
	if k.Tracer == nil {
		return
	}
	c := k.cur
	var tid uint32
	if c.current != nil {
		tid = c.current.ID
	}
	k.Tracer.Add(trace.Event{Time: c.clk.Now(), TID: tid, CPU: uint32(c.id), Kind: kind, A: a, B: b})
}

// ---------------------------------------------------------------------------
// Scheduler loop.

// Run executes until the system is quiescent: no runnable threads and no
// pending timers on any CPU.
func (k *Kernel) Run() {
	k.RunUntil(func() bool { return false })
}

// RunFor executes for (approximately) the given number of cycles of
// virtual time; a running thread is descheduled at the next user-mode
// instruction boundary past the budget. With several CPUs the budget
// bounds the virtual-time frontier (the maximum of the local clocks).
func (k *Kernel) RunFor(cycles uint64) {
	end := k.Now() + cycles
	k.stopAt = end
	k.RunUntil(func() bool { return k.Now() >= end })
	k.stopAt = 0
}

// RunUntil executes until stop() reports true (checked between
// dispatches) or the system is quiescent. The deterministic interleaver
// always advances the CPU with the smallest local virtual time, so the
// whole execution is a pure function of the initial state at any CPU
// count; an idle CPU with nothing to run steals from its busiest peer.
func (k *Kernel) RunUntil(stop func() bool) {
	if k.cfg.ParallelHost && len(k.cpus) > 1 {
		k.runParallel(stop)
		return
	}
	// Multi-CPU: keep the CPUs in a min-clock heap so each episode pays
	// O(log n) chooser maintenance instead of the O(n) scan. Rebuilt at
	// every run boundary — host code may move clocks between runs — and
	// fixed up after each episode, when only the acting CPU's clock has
	// advanced. Bit-identical to the scan order (TestClockHeapMatchesScan).
	multi := len(k.cpus) > 1
	if multi {
		if k.chooser == nil {
			k.chooser = newClockHeap(k.cpus)
		} else {
			k.chooser.reset()
		}
	}
	for !stop() {
		c := k.cpus[0]
		if multi {
			c = k.chooser.pick()
		}
		k.cur = c
		// A staged IPC handoff outranks the run queue: the donor blocked,
		// and its remaining slice passes straight to the staged peer.
		t, direct := k.schedClaimDispatch(c)
		if t == nil && len(k.cpus) > 1 {
			t = k.schedSteal(c)
		}
		if t == nil {
			if !k.idleStep(c) {
				return // quiescent
			}
			if multi {
				k.chooser.fix(c.id)
			}
			continue
		}
		k.dispatch(c, t, direct)
		if multi {
			k.chooser.fix(c.id)
		}
	}
	// A RunFor budget can stop the loop with a handoff still staged;
	// demote it to a normal enqueue so no thread is stranded in the slot
	// across Run calls (the slot is not part of checkpointable state).
	for _, c := range k.cpus {
		k.cur = c
		k.schedFlushDonation(c)
	}
}

// DebugDispatch, when set, is called on every dispatch with the chosen
// thread and the highest queued runnable priority (testing diagnostics).
var DebugDispatch func(t *obj.Thread, topQueued int, ok bool)

func (k *Kernel) dispatch(c *CPU, t *obj.Thread, direct bool) {
	if DebugDispatch != nil {
		top, ok := k.schedTopPriority(c)
		DebugDispatch(t, top, ok)
	}
	k.ctxSwitch(c, t, direct)
	if k.cfg.Model == ModelInterrupt {
		k.runThread(t)
	} else {
		if k.resumeCtx(t, resumeRun) == yDead {
			k.reapCtx(t)
		}
	}
	c.current = nil
}

// ctxSwitch makes t the running thread on c, charging the model-dependent
// switch cost: the process model additionally saves/restores kernel-mode
// register state ("six 32-bit memory reads and writes on every context
// switch", §5.3). The switch itself is scheduler work, done under the
// scheduler lock of the configured lock model.
//
// A direct switch (IPC fast-path handoff) charges CycDirectSwitch instead:
// no run-queue traffic, and no kernel-register save even in the process
// model — the donor is blocking, so its kernel context parks rather than
// being switched out. The incoming thread inherits the donor's remaining
// slice: the slice timer is not re-armed (unless the old one already
// expired), and a pending resched request stays pending, serviced at the
// incoming thread's first boundary — so a handoff chain can never run past
// the quantum the donor originally received.
func (k *Kernel) ctxSwitch(c *CPU, t *obj.Thread, direct bool) {
	cost := uint64(CycCtxSwitchBase)
	if k.cfg.Model == ModelProcess {
		cost += CycProcessKregSave
	}
	if direct {
		cost = CycDirectSwitch
	}
	k.lockAcquire(c, lockSched)
	c.stats.KernelCycles += cost
	c.clk.Advance(cost)
	// Attribute the switch cost to the *incoming* thread explicitly:
	// c.current is still nil here, and the cost is scheduler work done on
	// t's behalf (its mid-syscall restarts keep their syscall dimension).
	if direct {
		k.profCharge(c, t, profile.PathDirectSwitch, cost)
	} else {
		k.profCharge(c, t, profile.PathCtxSwitch, cost)
	}
	c.stats.ContextSwitches++
	t.State = obj.ThRunning
	c.current = t
	t.HomeCPU = c.id
	k.lockRelease(c, lockSched)
	if k.Metrics != nil {
		k.Metrics.CtxSwitches.Inc()
	}
	if direct {
		c.stats.FastpathHits++
		if k.Metrics != nil {
			k.Metrics.FastpathHits.Inc()
		}
		k.emit(trace.Handoff, t.ID, 0)
		k.spanCheckpoint(t, trace.FlowHandoff)
		k.ensureSliceTimer(c)
		return
	}
	k.emit(trace.CtxSwitch, t.ID, 0)
	k.observePreemptLatency(c)
	k.clearResched(c)
	k.armSliceTimer(c)
}

// ---------------------------------------------------------------------------
// The per-thread execution loop, shared verbatim by both models. In the
// interrupt model it runs on the per-CPU stack (the scheduler's frame) and
// returns whenever the thread stops running. In the process model it runs
// on the thread's own kernel-stack context and blocking parks in place, so
// it returns only when the thread dies.

// maxUserBatch bounds one StepN batch so the execution loop periodically
// regains control even if no timer is pending (it always is: the slice
// timer stays armed while a thread runs).
const maxUserBatch = 1 << 20

// userBudget returns how many cycles of user code may run before anything
// observable can happen on this CPU: the distance to its earliest timer
// deadline and to the RunFor stop point. Executing a batch of instructions
// whose cycle total first crosses this budget is indistinguishable from
// stepping one instruction at a time — no timer can fire strictly inside
// the batch, so the per-instruction resched checks hoist out of the hot
// loop.
func (k *Kernel) userBudget(c *CPU) uint64 {
	now := c.clk.Now()
	budget := uint64(maxUserBatch)
	if d, ok := c.clk.NextDeadline(); ok {
		if d <= now {
			return 1 // overdue timer fires on the next charge
		}
		if d-now < budget {
			budget = d - now
		}
	}
	if k.stopAt != 0 {
		if k.stopAt <= now {
			return 1
		}
		if k.stopAt-now < budget {
			budget = k.stopAt - now
		}
	}
	return budget
}

func (k *Kernel) runThread(t *obj.Thread) {
	// fromUser tracks whether a user-mode instruction has executed since
	// the thread was scheduled. A syscall trap taken without one is a
	// kernel-internal re-dispatch of a rolled-forward continuation (a
	// woken interrupt-model thread restarting its operation): no
	// privilege boundary is crossed, so the hardware entry cost is not
	// paid again.
	fromUser := false
	for t.State == obj.ThRunning {
		c := k.cur // re-read every iteration: parks can migrate the thread
		if k.donationPending(c) {
			// The thread staged a handoff but kept running (EINTR, soft
			// fault remedied in place, or the call completed without
			// blocking): the donation never fires, so demote the staged
			// peer to a normal run-queue wake before executing on.
			k.schedFlushDonation(c)
		}
		if c.settling == t {
			// A settle drove us to a clean boundary; stop here.
			t.State = obj.ThReady
			k.schedEnqueueFront(c, t)
			k.yieldProcess(t, yReady)
			continue
		}
		if t.HostFn != nil {
			if !k.stepHost(t) {
				return
			}
			continue
		}
		var cycles, retired uint64
		var trap cpu.Trap
		if k.fastExec {
			// Run to the next event. A pending resched request must be
			// observed at the very next instruction boundary, exactly as
			// the per-instruction loop would.
			budget := uint64(1)
			if !k.needsResched(c) {
				budget = k.userBudget(c)
			}
			cycles, retired, trap = k.stepUser(c, t, budget)
		} else {
			cycles, trap = cpu.Step(&t.Regs, t.Space.AS)
			if trap.Kind == cpu.TrapNone {
				retired = 1
			}
		}
		k.chargeUser(cycles)
		if t.State != obj.ThRunning {
			return
		}
		if k.needsResched(k.cur) {
			if !k.preemptUser(t) {
				return
			}
		}
		if retired > 0 {
			fromUser = true
		}
		switch trap.Kind {
		case cpu.TrapNone:
			// Batch budget exhausted at an instruction boundary.
		case cpu.TrapSyscall:
			if !k.doSyscall(t, trap.Sys, fromUser) {
				return
			}
			fromUser = false
		case cpu.TrapFault:
			if !k.doFault(t, t.Space, trap.Fault) {
				return
			}
		case cpu.TrapHalt:
			k.exitThread(t, t.Regs.R[1])
			return
		case cpu.TrapBreak:
			// Trace point; ignored.
		case cpu.TrapIllegal:
			k.exitThread(t, uint32(0xFFFF_00FF))
			return
		}
	}
}

// stepUser executes one user batch. In ParallelHost mode the batch runs
// outside the kernel gate — that is the real host parallelism — guarded by
// the space's step mutex so kernel code on other CPUs touching this space
// (IPC copies into a blocked peer) stays race-free.
func (k *Kernel) stepUser(c *CPU, t *obj.Thread, budget uint64) (cycles, retired uint64, trap cpu.Trap) {
	if k.par == nil {
		return cpu.StepN(&t.Regs, t.Space.AS, budget)
	}
	k.gateUnlock()
	t.Space.StepMu.Lock()
	cycles, retired, trap = cpu.StepN(&t.Regs, t.Space.AS, budget)
	t.Space.StepMu.Unlock()
	k.gateLock(c)
	return cycles, retired, trap
}

// stepHost runs one activation of a kernel (host-function) thread.
func (k *Kernel) stepHost(t *obj.Thread) bool {
	switch kerr := t.HostFn(); kerr {
	case sys.KOK:
		return true
	case sys.KWouldBlock, sys.KPreempted:
		return false
	case sys.KDead:
		return false
	default:
		panic(fmt.Sprintf("core: host thread returned %v", kerr))
	}
}

// preemptUser handles preemption at a user-mode instruction boundary.
func (k *Kernel) preemptUser(t *obj.Thread) bool {
	c := k.cur
	c.stats.PreemptsUser++
	if k.Metrics != nil {
		k.Metrics.PreemptsUser.Inc()
	}
	k.emit(trace.Preempt, 0, 0)
	k.clearResched(c)
	t.State = obj.ThReady
	k.schedEnqueue(c, t)
	if k.cfg.Model == ModelInterrupt {
		return false
	}
	k.yieldProcess(t, yReady)
	return true
}

// ---------------------------------------------------------------------------
// Cycle charging. Kernel charges in the fully-preemptible configuration
// are chunked so a wakeup during a long kernel operation preempts within
// fpChunk cycles.

func (k *Kernel) chargeUser(cycles uint64) {
	c := k.cur
	c.stats.UserCycles += cycles
	c.clk.Advance(cycles)
	k.profCharge(c, c.current, profile.PathUser, cycles)
	if k.stopAt != 0 && c.clk.Now() >= k.stopAt {
		k.forceResched(c)
	}
}

// ChargeKernel charges kernel work to virtual time, honoring full kernel
// preemption. Syscall handlers and the IPC engine use it for all
// simulated kernel work.
func (k *Kernel) ChargeKernel(cycles uint64) {
	c := k.cur
	t := c.current
	if k.cfg.Preempt == PreemptFull && c.inHandler && t != nil && c.settling != t {
		for cycles > 0 {
			c = k.cur // a park below can migrate the thread to another CPU
			n := cycles
			if n > k.cfg.FPChunkCycles {
				n = k.cfg.FPChunkCycles
			}
			c.stats.KernelCycles += n
			t.EntryCycles += n
			c.clk.Advance(n)
			k.profChargeKernel(c, t, n)
			cycles -= n
			if k.needsResched(c) && t.State == obj.ThRunning {
				c.stats.PreemptsKernel++
				if k.Metrics != nil {
					k.Metrics.PreemptsKernel.Inc()
				}
				k.emit(trace.Preempt, 2, 0)
				k.clearResched(c)
				t.State = obj.ThReady
				t.InKernelPark = true
				k.schedEnqueueFront(c, t)
				snap := k.parkRelease() // an in-kernel park releases kernel locks
				k.yieldProcess(t, yReady)
				t.InKernelPark = false
				k.parkReacquire(snap)
			}
		}
		return
	}
	c.stats.KernelCycles += cycles
	if t != nil && c.inHandler {
		t.EntryCycles += cycles
	}
	c.clk.Advance(cycles)
	k.profChargeKernel(c, t, cycles)
}

// ---------------------------------------------------------------------------
// System call dispatch (entry/exit code — the model-dependent part).

func (k *Kernel) doSyscall(t *obj.Thread, num int, fromUser bool) bool {
	entry := uint64(CycSyscallEntry)
	exit := uint64(CycSyscallExit)
	if k.cfg.Model == ModelInterrupt {
		// Architectural bias (§5.5): the interrupt model moves saved
		// state between the per-CPU stack and the thread structure.
		entry += CycInterruptEntryExtra
		exit += CycInterruptExitExtra
	}
	if !fromUser {
		// Kernel-internal re-dispatch of a rolled-forward continuation:
		// the scheduler invokes the handler directly.
		entry = CycKernelRedispatch
	}
	if num < 0 || num >= sys.NumSyscalls || k.handlers[num] == nil {
		oldTag := profTag(t, profile.PathSyscallEntry)
		k.ChargeKernel(entry + exit)
		profRestore(t, oldTag)
		k.Return(t, sys.EINVAL)
		return true
	}
	c := k.cur
	c.stats.Syscalls++
	c.stats.SyscallsByNum[num]++
	episodeStart := c.clk.Now()
	redispatch := uint32(0)
	if !fromUser {
		redispatch = 1
	}
	k.emit(trace.SyscallEnter, uint32(num), redispatch)
	if t.InSyscall {
		c.stats.Restarts++
		if k.Metrics != nil {
			k.Metrics.RestartsTotal.Inc()
		}
	}
	t.InSyscall = true
	// The profiler's syscall dimension: set before the entry lock so a
	// contended acquire's spin already attributes here. It stays set
	// across blocks and faults (the thread is still inside the call) and
	// resets at KOK/KIntr completion below.
	t.CurSys = int16(num)
	c.inHandler = true
	// Kernel entry takes the syscall-side lock: the space's object lock
	// under LockFine, the big kernel lock under LockBig.
	k.lockAcquire(c, lockObj)
	oldTag := profTag(t, profile.PathSyscallEntry)
	k.ChargeKernel(entry)
	if k.cfg.Preempt == PreemptFull {
		// FP needs kernel locking (Table 4); charge the lock traffic.
		k.ChargeKernel(CycKernelLock)
	}
	profRestore(t, oldTag)
	k.spanSyscallEnter(t, num)
	kerr := k.handlers[num](k, t)
	k.emit(trace.SyscallExit, uint32(num), uint32(kerr))
	switch kerr {
	case sys.KOK:
		t.InSyscall = false
		t.EntryCycles = 0
		exitTag := profTag(t, profile.PathSyscallExit)
		k.ChargeKernel(exit)
		profRestore(t, exitTag)
		k.spanSyscallExit(t, num)
		t.CurSys = profile.NoSyscall
		k.releaseHeld()
		k.cur.inHandler = false
		if k.Metrics != nil {
			k.Metrics.SyscallLatency[num].Observe(k.cur.clk.Now() - episodeStart)
		}
		k.trace(t, num, "ok")
		return true
	case sys.KIntr:
		k.Return(t, sys.EINTR)
		t.InSyscall = false
		t.EntryCycles = 0
		exitTag := profTag(t, profile.PathSyscallExit)
		k.ChargeKernel(exit)
		profRestore(t, exitTag)
		k.spanSyscallExit(t, num)
		t.CurSys = profile.NoSyscall
		k.releaseHeld()
		k.cur.inHandler = false
		if k.Metrics != nil {
			k.Metrics.SyscallLatency[num].Observe(k.cur.clk.Now() - episodeStart)
		}
		k.trace(t, num, "eintr")
		return true
	case sys.KWouldBlock, sys.KPreempted, sys.KDead:
		// Parked paths released at the park; a KDead handler did not.
		k.releaseHeld()
		k.cur.inHandler = false
		k.trace(t, num, kerr.String())
		return false
	case sys.KFault:
		// Release the syscall-entry lock before the fault path takes the
		// MMU lock: obj and mmu never nest.
		k.releaseHeld()
		k.cur.inHandler = false
		k.trace(t, num, "fault")
		return k.doFault(t, t.PendingFaultSpace, t.PendingFault)
	default:
		panic(fmt.Sprintf("core: handler %s returned %v", sys.Name(num), kerr))
	}
}

func (k *Kernel) trace(t *obj.Thread, num int, outcome string) {
	if k.cfg.TraceSyscalls != nil {
		k.cfg.TraceSyscalls(fmt.Sprintf("[%10d] t%d %s -> %s", k.cur.clk.Now(), t.ID, sys.Name(num), outcome))
	}
}

// ---------------------------------------------------------------------------
// Fault handling: classify against the mapping hierarchy, remedy soft
// faults in the kernel, turn hard faults into pager notifications and
// wait. In all cases the faulting operation restarts from its
// rolled-forward register state afterwards.

func (k *Kernel) doFault(t *obj.Thread, spc *obj.Space, f cpu.Fault) bool {
	c := k.cur
	// The fault path's kernel entry takes the MMU-side lock — under the
	// fine model, the *faulted* space's instance (a cross-space IPC fault
	// locks the peer's MMU, not the faulter's).
	k.lockAcquireSlot(c, k.spaceMMUSlot(spc))
	if k.par != nil && spc != t.Space {
		// Cross-space fault in ParallelHost mode: the peer space's home
		// CPU may be stepping its other threads concurrently.
		spc.StepMu.Lock()
		defer spc.StepMu.Unlock()
	}
	class, m := spc.AS.Classify(f.VA, f.Access)
	side := FaultSame
	if spc != t.Space {
		side = FaultCross
	}
	key := FaultKey{Class: class, Side: side}
	sideBit := uint32(0)
	if side == FaultCross {
		sideBit = 1
	}
	k.emit(trace.Fault, f.VA, uint32(class)|sideBit<<8)
	switch class {
	case mmu.FaultSoft:
		c.stats.FaultCount[key]++
		c.stats.FaultRollback[key] += t.EntryCycles
		k.countFaultRestart(class, side, t.EntryCycles)
		t.EntryCycles = 0
		start := c.clk.Now()
		remedy := uint64(CycSoftFaultRemedy)
		if side == FaultCross {
			remedy += CycCrossSpaceFaultExtra
		}
		if k.cfg.Preempt == PreemptFull {
			// The fault path takes blocking kernel locks in the
			// fully-preemptible configuration.
			remedy += CycFaultLockSoftFP
		}
		oldTag := profTag(t, profile.PathFaultSoft)
		k.ChargeKernel(remedy)
		profRestore(t, oldTag)
		if err := spc.AS.ResolveSoft(f.VA, f.Access); err != nil {
			k.releaseHeld()
			k.exitThread(t, uint32(0xFFFF_0E00))
			return false
		}
		c = k.cur // an FP park inside ChargeKernel can migrate us
		c.stats.FaultRemedy[key] += c.clk.Now() - start
		k.countFaultRemedy(class, side, c.clk.Now()-start)
		k.releaseHeld()
		return true

	case mmu.FaultCOW:
		// A store hit a copy-on-write frame shared by zero-copy IPC.
		// Resolved in place like a soft fault — by copying the page
		// (breaking the share), or by restoring write permission when
		// this region holds the last reference — but it is *not* one of
		// Table 3's four causes: the copying kernel never raises it, so
		// countFaultRestart/Remedy (the four-cause instruments) stay
		// untouched and the zero-copy equivalence test can pin them
		// bit-identical with the path on and off.
		c.stats.FaultCount[key]++
		c.stats.FaultRollback[key] += t.EntryCycles
		t.EntryCycles = 0
		start := c.clk.Now()
		remedy := uint64(CycCOWBreak)
		if k.cfg.Preempt == PreemptFull {
			remedy += CycFaultLockSoftFP
		}
		oldTag := profTag(t, profile.PathFaultCOW)
		k.ChargeKernel(remedy)
		copied, err := spc.AS.ResolveCOW(f.VA)
		if err != nil {
			profRestore(t, oldTag)
			k.releaseHeld()
			k.exitThread(t, uint32(0xFFFF_0E00))
			return false
		}
		if copied {
			k.ChargeKernel(CycCopyWord * PageWords)
		}
		profRestore(t, oldTag)
		c = k.cur // an FP park inside ChargeKernel can migrate us
		c.stats.ZeroCopyCOWBreaks++
		if k.Metrics != nil {
			k.Metrics.ZeroCopyCOWBreaks.Inc()
		}
		var copiedBit uint32
		if copied {
			copiedBit = 1
		}
		k.emit(trace.COWBreak, f.VA, copiedBit)
		c.stats.FaultRemedy[key] += c.clk.Now() - start
		k.releaseHeld()
		return true

	case mmu.FaultHard:
		c.stats.FaultCount[key]++
		c.stats.FaultRollback[key] += t.EntryCycles
		k.countFaultRestart(class, side, t.EntryCycles)
		t.EntryCycles = 0
		port, _ := m.Region.Pager.(*obj.Port)
		if port == nil || port.FaultRegion == nil || port.Dead {
			k.releaseHeld()
			k.exitThread(t, uint32(0xFFFF_0E01))
			return false
		}
		reg := port.FaultRegion
		off := mem.PageTrunc(m.RegionOff + (f.VA - m.Base))
		t.FaultStart = c.clk.Now()
		t.FaultClass = class
		t.FaultCross = side == FaultCross
		oldTag := profTag(t, profile.PathFaultHard)
		k.ChargeKernel(CycHardFaultKernel)
		if side == FaultCross {
			k.ChargeKernel(CycCrossSpaceFaultExtra)
		}
		if k.cfg.Preempt == PreemptFull {
			k.ChargeKernel(CycFaultLockHardFP)
		}
		k.queueFault(reg, port, off)
		profRestore(t, oldTag)
		// Wait for the pager to populate the page. The wait is not
		// EINTR-interruptible — an instruction restart would just
		// re-fault — but the thread's exported state stays clean
		// throughout (registers at the faulting restart point).
		switch kerr := k.block(&reg.FaultWaiters, false); kerr {
		case sys.KWouldBlock:
			return false
		case sys.KOK:
			k.releaseHeld()
			return true
		case sys.KDead:
			k.releaseHeld()
			return false
		default:
			panic(fmt.Sprintf("core: fault block returned %v", kerr))
		}

	default: // fatal
		c.stats.FaultCount[key]++
		if k.Metrics != nil {
			k.Metrics.FaultsFatal.Inc()
		}
		k.releaseHeld()
		k.exitThread(t, uint32(0xFFFF_0E02))
		return false
	}
}

// queueFault records a pending fault notification for the pager and wakes
// a server waiting on the pager's portset.
func (k *Kernel) queueFault(reg *obj.Region, port *obj.Port, off uint32) {
	k.ChargeKernel(CycFaultDeliver)
	if !reg.QueuePendingFault(off) {
		return // already queued
	}
	if k.Metrics != nil {
		k.Metrics.PagerNotices.Inc()
	}
	if port.Set != nil {
		k.wakeOne(&port.Set.Servers)
	}
}

// ---------------------------------------------------------------------------
// Blocking and waking.

// block parks the current thread on q. In the interrupt model it returns
// KWouldBlock and the dispatch layer unwinds — the thread's rolled-forward
// registers are its continuation. In the process model it parks the
// thread's kernel-stack context in place and returns KOK when woken.
//
// Blocking releases every kernel lock the CPU holds (sleep releases the
// kernel lock); the process model reacquires on resume, on whichever CPU
// the thread was re-dispatched.
//
// If interruptible, a pending thread_interrupt is consumed and KIntr
// returned instead of (or after) blocking.
func (k *Kernel) block(q *obj.WaitQueue, interruptible bool) sys.KErr {
	c := k.cur
	t := c.current
	if interruptible && t.Interrupted {
		t.Interrupted = false
		c.stats.Interrupts++
		return sys.KIntr
	}
	t.State = obj.ThBlocked
	q.Enqueue(t)
	snap := k.parkRelease()
	if k.cfg.Model == ModelInterrupt {
		return sys.KWouldBlock
	}
	k.yieldProcess(t, yBlocked)
	k.parkReacquire(snap)
	if interruptible && t.Interrupted {
		t.Interrupted = false
		k.cur.stats.Interrupts++
		return sys.KIntr
	}
	return sys.KOK
}

// Block is the exported blocking primitive for the IPC engine and host
// threads.
func (k *Kernel) Block(q *obj.WaitQueue, interruptible bool) sys.KErr {
	return k.block(q, interruptible)
}

// wakeThread makes a specific (blocked or stopped-ready) thread runnable,
// removing it from any wait queue and cancelling its sleep timer. The
// thread is queued on its home CPU; a cross-CPU wake that should preempt
// (or un-idle) the home CPU sends an IPI-like kick.
func (k *Kernel) wakeThread(t *obj.Thread) {
	if !k.wakePrep(t) {
		return
	}
	k.schedEnqueue(k.cur, t)
	k.maybeResched(t)
}

// wakePrep does the state half of a wake — dequeue from the wait queue,
// cancel the sleep timer, close fault-remedy accounting, ThBlocked →
// ThReady — and reports whether the thread is now runnable (and should be
// handed to the scheduler). Shared by wakeThread and handoffWake, which
// differ only in how the runnable thread reaches a CPU.
func (k *Kernel) wakePrep(t *obj.Thread) bool {
	if t.State == obj.ThDead {
		return false
	}
	if t.WaitQ != nil {
		t.WaitQ.Remove(t)
	}
	if t.SleepTimer != nil {
		t.SleepTimer.Stop()
		t.SleepTimer = nil
	}
	c := k.cur
	if t.FaultStart != 0 {
		key := FaultKey{Class: t.FaultClass, Side: FaultSame}
		if t.FaultCross {
			key.Side = FaultCross
		}
		lat := uint64(0)
		if now := c.clk.Now(); now > t.FaultStart {
			lat = now - t.FaultStart
		}
		c.stats.FaultRemedy[key] += lat
		k.countFaultRemedy(key.Class, key.Side, lat)
		t.FaultStart = 0
	}
	if t.State == obj.ThBlocked {
		t.State = obj.ThReady
	}
	if !t.Runnable() {
		return false
	}
	k.emit(trace.Wake, t.ID, 0)
	if k.Metrics != nil {
		k.Metrics.Wakes.Inc()
	}
	return true
}

// handoffWake is the IPC fast-path wake: the caller just completed a
// rendezvous transfer into t and expects to block, so instead of queueing
// t it stages it in the acting CPU's donation slot — when the caller does
// block, the scheduler consumes the slot and switches to t directly,
// donating the rest of the caller's time slice (no run-queue pass, no
// scheduler pick). If the slot is occupied by another thread, or t is
// already staged (a full receiver can be re-woken by the sender's
// zero-length completion check), it degrades gracefully.
func (k *Kernel) handoffWake(t *obj.Thread) {
	if t.Donated {
		return // already staged; nothing more a second wake could add
	}
	// Rendezvous-completion wakes carry the causal span: the waker just
	// finished a transfer into (or out of) t, so t is the span's next hop
	// whichever dispatch path — handoff, run queue, or steal — it takes.
	k.spanTouch(k.cur.current, t, trace.FlowWake)
	if !k.ipcFast || k.par != nil {
		// ParallelHost runs CPUs on real goroutines with threads pinned to
		// their home CPU; cross-CPU donation would violate the pinning, so
		// the fast path is a deterministic-mode optimisation only.
		k.wakeThread(t)
		return
	}
	if !k.wakePrep(t) {
		return
	}
	c := k.cur
	// Donate only if t would have been the scheduler's next pick anyway:
	// a queued thread of equal or higher priority goes first under the
	// slow path's FIFO round-robin, and a handoff past it would starve
	// it for a whole donation chain while other CPUs may sit idle. (An
	// idle CPU can still steal a staged donation — see schedSteal — so
	// staging never strands work during imbalance.)
	if top, ok := k.schedTopPriority(c); ok && top >= t.Priority {
		k.countFastpathFallback()
		k.schedEnqueue(c, t)
		k.maybeResched(t)
		return
	}
	if !k.schedDonate(c, t) {
		k.countFastpathFallback()
		k.schedEnqueue(c, t)
		k.maybeResched(t)
	}
}

// HandoffWake exposes handoffWake to the IPC engine: a wake at a
// rendezvous-completion point that may ride the direct-handoff fast path.
func (k *Kernel) HandoffWake(t *obj.Thread) { k.handoffWake(t) }

// CountIPCMiss records a rendezvous block where the peer was not already
// waiting — the complement of a fast-path hit, counted in both on and off
// configurations so the hit rate is comparable across runs.
func (k *Kernel) CountIPCMiss() {
	k.cur.stats.FastpathMisses++
	if k.Metrics != nil {
		k.Metrics.FastpathMisses.Inc()
	}
}

// countFastpathFallback records a fast-path attempt that degraded to the
// slow path: a staged handoff demoted to a normal enqueue, a donation slot
// found occupied, or a register-carried transfer that faulted.
func (k *Kernel) countFastpathFallback() {
	k.cur.stats.FastpathFallbacks++
	if k.Metrics != nil {
		k.Metrics.FastpathFallbacks.Inc()
	}
}

// countZeroCopyFallback records a transfer whose page-aligned run had to
// take the copying path anyway (MMIO window, unwritable receiver mapping,
// or a share the MMU refused).
func (k *Kernel) countZeroCopyFallback() {
	k.cur.stats.ZeroCopyFallbacks++
	if k.Metrics != nil {
		k.Metrics.ZeroCopyFallbacks.Inc()
	}
}

// wakeOne wakes the head of q, returning it (nil if the queue was empty).
func (k *Kernel) wakeOne(q *obj.WaitQueue) *obj.Thread {
	t := q.Peek()
	if t == nil {
		return nil
	}
	k.wakeThread(t)
	return t
}

// wakeAll wakes every thread on q.
func (k *Kernel) wakeAll(q *obj.WaitQueue) int {
	n := 0
	for k.wakeOne(q) != nil {
		n++
	}
	return n
}

// maybeResched decides whether a wake preempts: locally by priority (the
// original uniprocessor rule), remotely by kicking the home CPU when the
// woken thread outranks whatever it is running.
func (k *Kernel) maybeResched(t *obj.Thread) {
	c := k.cur
	home := k.cpus[t.HomeCPU]
	if home == c {
		if c.current != nil && t.Priority > c.current.Priority {
			k.noteResched(c)
		}
		return
	}
	if home.current == nil || t.Priority > home.current.Priority {
		k.kickCPU(c, home)
	}
}

// ---------------------------------------------------------------------------
// Voluntary yield and explicit preemption points.

// yieldCPU gives up the CPU with the thread still runnable. The caller
// must already have rolled the thread's registers forward to a consistent
// restart point (or completed the syscall). front selects queue position.
func (k *Kernel) yieldCPU(front bool) sys.KErr {
	c := k.cur
	t := c.current
	t.State = obj.ThReady
	if front {
		k.schedEnqueueFront(c, t)
	} else {
		k.schedEnqueue(c, t)
	}
	k.clearResched(c)
	snap := k.parkRelease()
	if k.cfg.Model == ModelInterrupt {
		return sys.KPreempted
	}
	k.yieldProcess(t, yReady)
	k.parkReacquire(snap)
	return sys.KOK
}

// PreemptPoint is the explicit preemption point on the IPC data copy path
// (PP configurations; paper Table 4). The caller must have rolled the
// transfer registers forward first, so unwinding loses no state. In the
// process model the thread resumes in place; in the interrupt model
// KPreempted propagates and the operation restarts from the rolled-forward
// registers.
func (k *Kernel) PreemptPoint() sys.KErr {
	if k.cfg.Preempt != PreemptPartial {
		return sys.KOK
	}
	k.ChargeKernel(CycPreemptPoint)
	if !k.needsResched(k.cur) {
		return sys.KOK
	}
	k.cur.stats.PreemptsPoint++
	if k.Metrics != nil {
		k.Metrics.PreemptsPoint.Inc()
	}
	k.emit(trace.Preempt, 1, 0)
	return k.yieldCPU(true)
}

// ---------------------------------------------------------------------------
// Thread death and settling.

// exitThread terminates t in place: marks it dead, severs its queues,
// wakes joiners, and breaks its IPC connection.
func (k *Kernel) exitThread(t *obj.Thread, code uint32) {
	if t.State == obj.ThDead {
		return
	}
	t.Exited = true
	t.ExitCode = code
	t.State = obj.ThDead
	k.emit(trace.ThreadExit, code, 0)
	if k.Metrics != nil {
		k.Metrics.ThreadsLive.Add(-1)
	}
	if t.WaitQ != nil {
		t.WaitQ.Remove(t)
	}
	k.schedRemove(k.cur, t)
	if t.SleepTimer != nil {
		t.SleepTimer.Stop()
		t.SleepTimer = nil
	}
	k.ipcOnDeath(t)
	k.wakeAll(&t.ExitWaiters)
	delete(k.threads, t.ID)
	if t.Space != nil {
		for i, x := range t.Space.Threads {
			if x == t {
				t.Space.Threads = append(t.Space.Threads[:i], t.Space.Threads[i+1:]...)
				break
			}
		}
		// The handle stays bound (dead) so joiners that restart after
		// the exit still resolve it; the destroy common op unbinds it.
	}
	t.Dead = true
}

// DestroyThread destroys an arbitrary thread, promptly: a target parked
// mid-kernel (FP) is first settled to a clean boundary, then its kernel
// stack context is unwound.
func (k *Kernel) DestroyThread(t *obj.Thread) {
	if t.State == obj.ThDead {
		return
	}
	if t == k.cur.current {
		k.exitThread(t, 0)
		return
	}
	if k.cfg.Model == ModelProcess {
		k.settle(t)
	}
	k.exitThread(t, 0)
	if k.cfg.Model == ModelProcess && t.KCtx != nil {
		if c := t.KCtx.(*kctx); !c.done {
			if k.resumeCtx(t, resumeKill) != yDead {
				panic("core: killed context yielded alive")
			}
			k.reapCtx(t)
		}
	}
}

// settle drives a process-model thread that was preempted mid-kernel to a
// clean boundary (syscall completion or a block point), so its exported
// state is consistent. The wait involves only kernel-internal activity,
// preserving the API's promptness requirement. The settle runs on the
// acting CPU regardless of where the target parked.
func (k *Kernel) settle(target *obj.Thread) {
	if !target.InKernelPark {
		return
	}
	c := k.cur
	me := c.current
	c.settling = target
	k.schedRemove(c, target)
	target.State = obj.ThRunning
	c.current = target
	target.HomeCPU = c.id
	if k.resumeCtx(target, resumeRun) == yDead {
		k.reapCtx(target)
	}
	c.settling = nil
	c.current = me
	if me != nil {
		me.State = obj.ThRunning
	}
	if target.InKernelPark {
		panic("core: settle did not reach a clean boundary")
	}
}

// ---------------------------------------------------------------------------
// Register-state helpers (the Figure 4 primitives).

// Return completes the current system call: status in R0, resume at the
// address the CALL left in LR.
func (k *Kernel) Return(t *obj.Thread, e sys.Errno) {
	t.Regs.R[0] = uint32(e)
	t.Regs.PC = t.Regs.R[cpu.LR]
}

// SetPC re-points the thread's user PC at a different system call
// entrypoint — the set_pc of paper Figure 4, which turns the user-visible
// register state into the continuation (cond_wait -> mutex_lock, IPC stage
// chaining).
func (k *Kernel) SetPC(t *obj.Thread, sysno int) {
	t.Regs.PC = cpu.SyscallEntry(sysno)
	t.InSyscall = false
	t.EntryCycles = 0
}

// CommitProgress marks the thread's rolled-forward registers as committed:
// work charged before this point will not be redone by a restart.
func (k *Kernel) CommitProgress(t *obj.Thread) {
	t.EntryCycles = 0
	if k.Metrics != nil {
		k.Metrics.Commits.Inc()
	}
}
