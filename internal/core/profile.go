package core

import (
	"repro/internal/obj"
	"repro/internal/profile"
)

// This file wires the cycle-accurate profiler (internal/profile) into the
// kernel's charge sites. The design mirrors Metrics/Tracer: the profiler
// never charges cycles and each site costs one nil-check branch when it
// is detached, so the simulated timeline is bit-identical with it on or
// off (TestProfilerEquivalence).
//
// Attribution invariant: every increment of Stats.UserCycles,
// Stats.KernelCycles, or Stats.IdleCycles — all seven sites: the context
// switch, the user batch, both ChargeKernel branches, the contended lock
// spin, and the two idle advances — mirrors exactly the same cycle count
// into the acting CPU's shard, so Snapshot().TotalCycles() equals
// Stats().TotalCycles() exactly (also pinned by TestProfilerEquivalence).
//
// The triple's dimensions come from the charged thread: its ambient path
// tag (Thread.ProfPath, set around the specifically-tagged kernel
// stretches — IPC copy, fault remedies, object lookups...), its current
// syscall (Thread.CurSys, maintained by doSyscall), and its user PC
// bucketed to profile.BucketShift bytes. The tag/CurSys byte writes are
// unconditional — they never affect virtual time — while all profiler
// reads gate on k.prof.

// TotalCycles is the clock-advancing cycle total: user + kernel + idle.
// Every profiler attribution mirrors one of these three counters.
func (s Stats) TotalCycles() uint64 {
	return s.UserCycles + s.KernelCycles + s.IdleCycles
}

// EnableProfiler attaches a fresh profiler to the kernel (idempotent).
// Attach before running; cycles charged earlier are not attributed.
func (k *Kernel) EnableProfiler() *profile.Profiler {
	if k.prof == nil {
		k.prof = profile.New(len(k.cpus))
	}
	return k.prof
}

// ProfileEnabled reports whether a profiler is attached.
func (k *Kernel) ProfileEnabled() bool { return k.prof != nil }

// ProfileSnapshot merges the per-CPU shards into a deterministic
// snapshot. Safe to call while a ParallelHost run is live: the merge
// happens under the kernel gate, like any kernel section.
func (k *Kernel) ProfileSnapshot() profile.Snapshot {
	if k.prof == nil {
		return profile.Snapshot{}
	}
	if k.par != nil {
		k.par.kmu.Lock()
		defer k.par.kmu.Unlock()
	}
	return k.prof.Snapshot()
}

// profCharge attributes cycles charged on CPU c to an explicit path,
// taking the syscall and PC dimensions from thread t (nil outside any
// thread: the idle loop, scheduler work before c.current is set).
func (k *Kernel) profCharge(c *CPU, t *obj.Thread, p profile.Path, cycles uint64) {
	if k.prof == nil || cycles == 0 {
		return
	}
	sysno, pc := profile.NoSyscall, uint32(0)
	if t != nil {
		sysno = int(t.CurSys)
		pc = t.Regs.PC
	}
	k.prof.Shard(c.id).Add(p, sysno, pc, cycles)
}

// profChargeKernel attributes kernel-path cycles using t's ambient path
// tag (PathKernel when untagged or t is nil) — the ChargeKernel mirror.
func (k *Kernel) profChargeKernel(c *CPU, t *obj.Thread, cycles uint64) {
	if k.prof == nil || cycles == 0 {
		return
	}
	p, sysno, pc := profile.PathKernel, profile.NoSyscall, uint32(0)
	if t != nil {
		p = profile.Path(t.ProfPath)
		sysno = int(t.CurSys)
		pc = t.Regs.PC
	}
	k.prof.Shard(c.id).Add(p, sysno, pc, cycles)
}

// profTag sets t's ambient kernel-path tag, returning the previous tag so
// nested stretches restore correctly (profRestore). The byte write is
// unconditional — cheaper than a branch, and invisible to virtual time.
func profTag(t *obj.Thread, p profile.Path) profile.Path {
	old := profile.Path(t.ProfPath)
	t.ProfPath = uint8(p)
	return old
}

// profRestore restores a tag saved by profTag.
func profRestore(t *obj.Thread, p profile.Path) { t.ProfPath = uint8(p) }
