package core

import (
	"repro/internal/clock"
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
	// sums the shards.
	stats Stats

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
		id:    id,
		clk:   clock.New(),
		runq:  sched.NewRunQueue(),
		stats: newStats(),
		held:  make([]int32, 0, maxHeldSlots),
	}
	c.sliceTimer = c.clk.NewTimer(func(uint64) { k.quantumExpired(c) })
	return c
}

// ID returns the CPU's index.
func (c *CPU) ID() int { return c.id }

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
	out := newStats()
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
		for key, v := range s.FaultCount {
			out.FaultCount[key] += v
		}
		for key, v := range s.FaultRemedy {
			out.FaultRemedy[key] += v
		}
		for key, v := range s.FaultRollback {
			out.FaultRollback[key] += v
		}
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

// CPUStats returns CPU i's un-merged stats shard.
func (k *Kernel) CPUStats(i int) Stats { return k.cpus[i].stats }
