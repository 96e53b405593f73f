package core

import (
	"repro/internal/clock"
	"repro/internal/mmu"
	"repro/internal/obj"
	"repro/internal/sched"
)

// CPU is one simulated processor: the kernel's per-CPU scheduler frame.
// Each CPU owns a local virtual clock (its TSC and local timer queue), a
// run queue, the currently running thread, and a Stats shard; the kernel
// merges the shards on read. In the interrupt execution model the CPU's
// scheduler frame doubles as its one kernel stack, exactly the paper's
// "one kernel stack per processor".
//
// In the default deterministic mode the CPUs execute serially — the
// scheduler loop always runs the CPU with the smallest local virtual time
// (ties broken by index) — so all per-CPU state is touched by one host
// goroutine at a time. In ParallelHost mode each CPU runs on its own host
// goroutine and every access to this struct happens under the lock-model
// mutexes (see locks.go, parallel.go).
type CPU struct {
	id  int
	clk *clock.Clock

	runq    *sched.RunQueue
	current *obj.Thread

	needResched bool
	sliceTimer  *clock.Timer // the quantum timer, built once (newCPU) and re-armed
	inHandler   bool         // a syscall handler is on this CPU's kernel stack
	settling    *obj.Thread  // settle() target; suppresses FP re-parking

	// reschedSince is the virtual time of the oldest unserviced
	// reschedule request (local quantum expiry, local wake, or a remote
	// CPU's IPI-like kick), feeding Metrics.PreemptLatency. 0 = none.
	reschedSince uint64

	// stats is this CPU's shard of the kernel counters; Kernel.Stats()
	// sums the shards. Its fault maps stay nil: the CPU counts faults in
	// the faults array, which StatsInto and CPUStats fold into maps.
	stats  Stats
	faults faultCells

	// holds are the lock-model re-entrancy counts, indexed by lock slot:
	// holds[slot] > 0 means this CPU's kernel context holds that lock
	// instance. lockSince stamps the outermost acquire for the hold-time
	// histogram, and held lists the currently held slots so episode
	// epilogues release in O(held) rather than scanning the whole table
	// (the fine model's table grows with CPUs and spaces). Sized by
	// initLockTable/addLockSlot.
	holds     []int16
	lockSince []uint64
	held      []int32
}

func newCPU(k *Kernel, id int) *CPU {
	c := &CPU{
		id:   id,
		clk:  clock.New(),
		runq: sched.NewRunQueue(),
		held: make([]int32, 0, maxHeldSlots),
	}
	c.sliceTimer = c.clk.NewTimer(func(uint64) { k.quantumExpired(c) })
	return c
}

// stopSliceTimer cancels the CPU's pending quantum timer, if any.
func (c *CPU) stopSliceTimer() { c.clk.Cancel(c.sliceTimer) }

// ---------------------------------------------------------------------------
// Kernel-level multi-CPU surface.

// NumCPUs returns the number of simulated processors.
func (k *Kernel) NumCPUs() int { return len(k.cpus) }

// Now returns the frontier of virtual time: the maximum of the per-CPU
// clocks. At NumCPUs == 1 it equals k.Clock.Now().
func (k *Kernel) Now() uint64 {
	now := uint64(0)
	for _, c := range k.cpus {
		if n := c.clk.Now(); n > now {
			now = n
		}
	}
	return now
}

// CPUNow returns CPU i's local virtual time.
func (k *Kernel) CPUNow(i int) uint64 { return k.cpus[i].clk.Now() }

// Stats returns the kernel counters, merging the per-CPU shards. Maps in
// the result are freshly allocated — callers that snapshot in a loop and
// can reuse a buffer should call StatsInto instead, which allocates
// nothing. Safe to call while a ParallelHost run is live: the merge runs
// under the kernel gate, so it sees a consistent boundary between kernel
// sections (pinned by the -race merge test).
func (k *Kernel) Stats() Stats {
	var out Stats
	k.StatsInto(&out)
	return out
}

// StatsInto merges the per-CPU shards into *out, reusing out's maps
// (cleared first; allocated if nil). Repeated snapshots through the same
// buffer are allocation-free once the maps have reached their steady-state
// size — the point at 64 CPUs, where a fresh merge per read would pay map
// allocations on every poll (pinned by TestStatsIntoAllocs).
func (k *Kernel) StatsInto(out *Stats) {
	if k.par != nil {
		k.par.kmu.Lock()
		defer k.par.kmu.Unlock()
	}
	faultCount, faultRemedy, faultRollback := out.FaultCount, out.FaultRemedy, out.FaultRollback
	if faultCount == nil {
		faultCount = make(map[FaultKey]uint64)
	}
	if faultRemedy == nil {
		faultRemedy = make(map[FaultKey]uint64)
	}
	if faultRollback == nil {
		faultRollback = make(map[FaultKey]uint64)
	}
	clear(faultCount)
	clear(faultRemedy)
	clear(faultRollback)
	*out = Stats{FaultCount: faultCount, FaultRemedy: faultRemedy, FaultRollback: faultRollback}
	for _, c := range k.cpus {
		s := &c.stats
		out.Syscalls += s.Syscalls
		for i := range s.SyscallsByNum {
			out.SyscallsByNum[i] += s.SyscallsByNum[i]
		}
		out.ContextSwitches += s.ContextSwitches
		out.UserCycles += s.UserCycles
		out.KernelCycles += s.KernelCycles
		out.IdleCycles += s.IdleCycles
		out.Restarts += s.Restarts
		c.faults.foldInto(out)
		out.PreemptsUser += s.PreemptsUser
		out.PreemptsPoint += s.PreemptsPoint
		out.PreemptsKernel += s.PreemptsKernel
		out.Interrupts += s.Interrupts
		out.TimerIRQs += s.TimerIRQs
		out.ContinuationsRecognized += s.ContinuationsRecognized
		out.IPIs += s.IPIs
		out.Steals += s.Steals
		out.FastpathHits += s.FastpathHits
		out.FastpathMisses += s.FastpathMisses
		out.FastpathFallbacks += s.FastpathFallbacks
		out.ZeroCopyShares += s.ZeroCopyShares
		out.ZeroCopyCOWBreaks += s.ZeroCopyCOWBreaks
		out.ZeroCopyFallbacks += s.ZeroCopyFallbacks
	}
}

// CPUStats returns CPU i's un-merged stats shard. Its fault maps are
// freshly allocated, so writing them leaves the kernel's counters alone.
func (k *Kernel) CPUStats(i int) Stats {
	c := k.cpus[i]
	s := c.stats
	s.FaultCount = make(map[FaultKey]uint64)
	s.FaultRemedy = make(map[FaultKey]uint64)
	s.FaultRollback = make(map[FaultKey]uint64)
	c.faults.foldInto(&s)
	return s
}

// faultCell is one (class, side) cell of a CPU's fault counters. The
// merged Stats maps hold a key for every cell a sum was ever added to,
// zero sums included, so a cell records which sums were touched as well
// as their values. A count is only ever incremented, so count > 0 is its
// own flag.
type faultCell struct {
	count, remedy, rollback uint64
	remedied, rolledBack    bool
}

// faultCells are a CPU's fault counters, indexed [class][side].
type faultCells [mmu.FaultCOW + 1][FaultCross + 1]faultCell

// restart counts a fault the thread will restart from, and the cycles of
// discarded work it rolls back.
func (fc *faultCells) restart(class mmu.FaultClass, side FaultSide, rollback uint64) {
	c := &fc[class][side]
	c.count++
	c.rollback += rollback
	c.rolledBack = true
}

// addRemedy adds cycles spent servicing a fault.
func (fc *faultCells) addRemedy(class mmu.FaultClass, side FaultSide, cycles uint64) {
	c := &fc[class][side]
	c.remedy += cycles
	c.remedied = true
}

// foldInto adds the cells to out's fault maps, which must be non-nil.
func (fc *faultCells) foldInto(out *Stats) {
	for class := range fc {
		for side := range fc[class] {
			c := &fc[class][side]
			key := FaultKey{Class: mmu.FaultClass(class), Side: FaultSide(side)}
			if c.count > 0 {
				out.FaultCount[key] += c.count
			}
			if c.remedied {
				out.FaultRemedy[key] += c.remedy
			}
			if c.rolledBack {
				out.FaultRollback[key] += c.rollback
			}
		}
	}
}
