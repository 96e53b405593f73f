package core

import (
	"repro/internal/clock"
	"repro/internal/cpu"
	"repro/internal/mem"
	"repro/internal/mmu"
	"repro/internal/obj"
	"repro/internal/profile"
	"repro/internal/sys"
)

// This file implements the type-specific short calls, the long (sleeping)
// calls, and the two non-IPC multi-stage calls. Long calls follow the
// atomic-API discipline: before any sleep the registers are rolled forward
// to a state from which a restart completes correctly, so an interrupted
// or examined thread is never "inside" an operation.

// ---------------------------------------------------------------------------
// Short calls.

func (k *Kernel) sysMutexTrylock(t *obj.Thread) sys.KErr {
	o, e, kerr := k.objAt(t, t.Regs.R[1], sys.ObjMutex, false)
	if kerr != sys.KOK {
		return kerr
	}
	if e != sys.EOK {
		k.Return(t, e)
		return sys.KOK
	}
	m := o.(*obj.Mutex)
	if m.Locked {
		k.Return(t, sys.EWOULDBLOCK)
		return sys.KOK
	}
	m.Locked = true
	m.Holder = t
	k.Return(t, sys.EOK)
	return sys.KOK
}

func (k *Kernel) sysMutexUnlock(t *obj.Thread) sys.KErr {
	o, e, kerr := k.objAt(t, t.Regs.R[1], sys.ObjMutex, false)
	if kerr != sys.KOK {
		return kerr
	}
	if e != sys.EOK {
		k.Return(t, e)
		return sys.KOK
	}
	m := o.(*obj.Mutex)
	if !m.Locked {
		k.Return(t, sys.ESTATE)
		return sys.KOK
	}
	m.Locked = false
	m.Holder = nil
	if !k.grantMutexByContinuation(m) {
		k.wakeOne(&m.Waiters)
	}
	k.Return(t, sys.EOK)
	return sys.KOK
}

// grantMutexByContinuation is §2.2 continuation recognition: if the head
// waiter's explicit continuation is the mutex_lock entrypoint (it always
// is — the atomic API put it there), the kernel completes the lock by
// rewriting the waiter's result registers directly, so it wakes straight
// into user code with the mutex held and never re-executes the syscall.
// Only meaningful in the interrupt model: a process-model waiter resumes
// inside its retained kernel stack regardless.
func (k *Kernel) grantMutexByContinuation(m *obj.Mutex) bool {
	if !k.cfg.ContinuationRecognition || k.cfg.Model != ModelInterrupt || m.Locked {
		return false
	}
	w := m.Waiters.Peek()
	if w == nil || w.Regs.PC != cpu.SyscallEntry(sys.NMutexLock) || w.Interrupted {
		return false
	}
	m.Locked = true
	m.Holder = w
	k.Return(w, sys.EOK)
	w.InSyscall = false
	// The waiter's mutex_lock completed here, not through doSyscall's exit
	// path: clear the profiler's syscall dimension so the user cycles it
	// runs next are not attributed to a call it is no longer inside.
	w.CurSys = profile.NoSyscall
	w.EntryCycles = 0
	k.cur.stats.ContinuationsRecognized++
	k.wakeOne(&m.Waiters)
	return true
}

func (k *Kernel) sysCondSignal(t *obj.Thread) sys.KErr {
	o, e, kerr := k.objAt(t, t.Regs.R[1], sys.ObjCond, false)
	if kerr != sys.KOK {
		return kerr
	}
	if e != sys.EOK {
		k.Return(t, e)
		return sys.KOK
	}
	// The woken thread's PC already points at mutex_lock (see
	// sysCondWait), so waking it sends it to reacquire the mutex — or,
	// with continuation recognition, the kernel grants the mutex by
	// rewriting the waiter's state and it skips the syscall entirely.
	c := o.(*obj.Cond)
	if !k.signalByContinuation(t, c) {
		k.wakeOne(&c.Waiters)
	}
	k.Return(t, sys.EOK)
	return sys.KOK
}

// signalByContinuation recognizes a cond waiter's mutex_lock continuation:
// if the mutex named in its R1 is free, take it on the waiter's behalf
// and complete the call in its register state (§2.2).
func (k *Kernel) signalByContinuation(t *obj.Thread, c *obj.Cond) bool {
	if !k.cfg.ContinuationRecognition || k.cfg.Model != ModelInterrupt {
		return false
	}
	w := c.Waiters.Peek()
	if w == nil || w.Regs.PC != cpu.SyscallEntry(sys.NMutexLock) || w.Interrupted {
		return false
	}
	mo, ok := w.Space.At(w.Regs.R[1]).(*obj.Mutex)
	if !ok || mo.Dead || mo.Locked {
		return false
	}
	mo.Locked = true
	mo.Holder = w
	k.Return(w, sys.EOK)
	w.InSyscall = false
	// The waiter's mutex_lock completed here, not through doSyscall's exit
	// path: clear the profiler's syscall dimension so the user cycles it
	// runs next are not attributed to a call it is no longer inside.
	w.CurSys = profile.NoSyscall
	w.EntryCycles = 0
	k.cur.stats.ContinuationsRecognized++
	k.wakeOne(&c.Waiters)
	return true
}

func (k *Kernel) sysCondBroadcast(t *obj.Thread) sys.KErr {
	o, e, kerr := k.objAt(t, t.Regs.R[1], sys.ObjCond, false)
	if kerr != sys.KOK {
		return kerr
	}
	if e != sys.EOK {
		k.Return(t, e)
		return sys.KOK
	}
	k.wakeAll(&o.(*obj.Cond).Waiters)
	k.Return(t, sys.EOK)
	return sys.KOK
}

// lookupThreadArg resolves a thread handle argument.
func (k *Kernel) lookupThreadArg(t *obj.Thread, va uint32, allowDead bool) (*obj.Thread, sys.Errno, sys.KErr) {
	o, e, kerr := k.objAt(t, va, sys.ObjThread, allowDead)
	if kerr != sys.KOK || e != sys.EOK {
		return nil, e, kerr
	}
	return o.(*obj.Thread), sys.EOK, sys.KOK
}

// sysThreadInterrupt breaks the target out of its current or next blocking
// operation: if blocked it is woken with the interrupt pending; the
// pending interrupt is consumed at the target's next block point and
// delivered as EINTR. The target's registers always name a clean restart
// point, so nothing is lost (§4.2: "sleeping operations such as mutex_lock
// are interrupted and rolled back").
func (k *Kernel) sysThreadInterrupt(t *obj.Thread) sys.KErr {
	target, e, kerr := k.lookupThreadArg(t, t.Regs.R[1], false)
	if kerr != sys.KOK {
		return kerr
	}
	if e != sys.EOK {
		k.Return(t, e)
		return sys.KOK
	}
	target.Interrupted = true
	if target.State == obj.ThBlocked {
		k.wakeThread(target)
	}
	k.Return(t, sys.EOK)
	return sys.KOK
}

// sysThreadStop stops the target promptly. A target parked mid-kernel
// (full preemption) is settled to a clean boundary first — the wait is
// kernel-internal only, as promptness requires.
func (k *Kernel) sysThreadStop(t *obj.Thread) sys.KErr {
	target, e, kerr := k.lookupThreadArg(t, t.Regs.R[1], false)
	if kerr != sys.KOK {
		return kerr
	}
	if e != sys.EOK {
		k.Return(t, e)
		return sys.KOK
	}
	if target == t {
		k.Return(t, sys.EINVAL) // use thread_suspend_self
		return sys.KOK
	}
	if k.cfg.Model == ModelProcess && target.InKernelPark {
		k.settle(target)
	}
	target.Stopped = true
	k.schedRemove(k.cur, target)
	k.Return(t, sys.EOK)
	return sys.KOK
}

func (k *Kernel) sysThreadResume(t *obj.Thread) sys.KErr {
	target, e, kerr := k.lookupThreadArg(t, t.Regs.R[1], false)
	if kerr != sys.KOK {
		return kerr
	}
	if e != sys.EOK {
		k.Return(t, e)
		return sys.KOK
	}
	if target.Stopped {
		target.Stopped = false
		if target.State == obj.ThReady {
			k.schedEnqueue(k.cur, target)
			k.maybeResched(target)
		}
	}
	k.Return(t, sys.EOK)
	return sys.KOK
}

func (k *Kernel) sysThreadSetPriority(t *obj.Thread) sys.KErr {
	target, e, kerr := k.lookupThreadArg(t, t.Regs.R[1], false)
	if kerr != sys.KOK {
		return kerr
	}
	if e != sys.EOK {
		k.Return(t, e)
		return sys.KOK
	}
	p := int(t.Regs.R[2])
	if p < 0 || p >= 32 {
		k.Return(t, sys.EINVAL)
		return sys.KOK
	}
	onQueue := target.State == obj.ThReady && !target.Stopped && target != t
	if onQueue {
		k.schedRemove(k.cur, target)
	}
	target.Priority = p
	if onQueue {
		k.schedEnqueue(k.cur, target)
		k.maybeResched(target)
	}
	k.Return(t, sys.EOK)
	return sys.KOK
}

// sysSchedYield completes (rolling the thread fully forward) and then
// gives up the CPU — the thread is never observable "inside" the yield.
func (k *Kernel) sysSchedYield(t *obj.Thread) sys.KErr {
	k.Return(t, sys.EOK)
	return k.yieldCPU(false)
}

// sysRegionProtect changes the protection of the mapping at R1 to the
// mmu.Perm bits in R2, flushing affected translations.
func (k *Kernel) sysRegionProtect(t *obj.Thread) sys.KErr {
	o, e, kerr := k.objAt(t, t.Regs.R[1], sys.ObjMapping, false)
	if kerr != sys.KOK {
		return kerr
	}
	if e != sys.EOK {
		k.Return(t, e)
		return sys.KOK
	}
	m := o.(*obj.Mapping)
	m.Dst.AS.SetProtection(m.M, mmu.Perm(t.Regs.R[2]&7))
	k.Return(t, sys.EOK)
	return sys.KOK
}

func (k *Kernel) sysPortsetAdd(t *obj.Thread) sys.KErr {
	pso, e, kerr := k.objAt(t, t.Regs.R[1], sys.ObjPortset, false)
	if kerr != sys.KOK {
		return kerr
	}
	if e != sys.EOK {
		k.Return(t, e)
		return sys.KOK
	}
	po, e, kerr := k.objAt(t, t.Regs.R[2], sys.ObjPort, false)
	if kerr != sys.KOK {
		return kerr
	}
	if e != sys.EOK {
		k.Return(t, e)
		return sys.KOK
	}
	ps := pso.(*obj.Portset)
	e = ps.AddPort(po.(*obj.Port))
	if e == sys.EOK && ps.PendingPort() != nil {
		k.wakeOne(&ps.Servers)
	}
	k.Return(t, e)
	return sys.KOK
}

func (k *Kernel) sysPortsetRemove(t *obj.Thread) sys.KErr {
	pso, e, kerr := k.objAt(t, t.Regs.R[1], sys.ObjPortset, false)
	if kerr != sys.KOK {
		return kerr
	}
	if e != sys.EOK {
		k.Return(t, e)
		return sys.KOK
	}
	po, e, kerr := k.objAt(t, t.Regs.R[2], sys.ObjPort, false)
	if kerr != sys.KOK {
		return kerr
	}
	if e != sys.EOK {
		k.Return(t, e)
		return sys.KOK
	}
	k.Return(t, pso.(*obj.Portset).RemovePort(po.(*obj.Port)))
	return sys.KOK
}

// sysMemAllocate populates R3 pages (default 1) of the region at R1
// starting at byte offset R2 with zero frames, waking any threads waiting
// on those pages. This is the call a user-mode memory manager uses to
// satisfy a hard page fault.
func (k *Kernel) sysMemAllocate(t *obj.Thread) sys.KErr {
	o, e, kerr := k.objAt(t, t.Regs.R[1], sys.ObjRegion, false)
	if kerr != sys.KOK {
		return kerr
	}
	if e != sys.EOK {
		k.Return(t, e)
		return sys.KOK
	}
	reg := o.(*obj.Region)
	off := mem.PageTrunc(t.Regs.R[2])
	n := t.Regs.R[3]
	if n == 0 {
		n = 1
	}
	if off+n*mem.PageSize > reg.R.Size {
		k.Return(t, sys.EINVAL)
		return sys.KOK
	}
	for i := uint32(0); i < n; i++ {
		po := off + i*mem.PageSize
		if reg.R.FrameAt(po) != nil {
			continue
		}
		f, err := k.Alloc.Alloc()
		if err != nil {
			k.Return(t, sys.ENOMEM)
			return sys.KOK
		}
		k.ChargeKernel(40) // frame grant bookkeeping
		reg.R.Populate(po, f)
		// Clear any pending pager notification for this page.
		reg.ClearPendingFault(po)
	}
	k.wakeAll(&reg.FaultWaiters)
	k.Return(t, sys.EOK)
	return sys.KOK
}

// sysMemFree evicts R3 pages (default 1) of the region at R1 starting at
// byte offset R2, flushing stale translations in every space.
func (k *Kernel) sysMemFree(t *obj.Thread) sys.KErr {
	o, e, kerr := k.objAt(t, t.Regs.R[1], sys.ObjRegion, false)
	if kerr != sys.KOK {
		return kerr
	}
	if e != sys.EOK {
		k.Return(t, e)
		return sys.KOK
	}
	reg := o.(*obj.Region)
	off := mem.PageTrunc(t.Regs.R[2])
	n := t.Regs.R[3]
	if n == 0 {
		n = 1
	}
	if off+n*mem.PageSize > reg.R.Size {
		k.Return(t, sys.EINVAL)
		return sys.KOK
	}
	for i := uint32(0); i < n; i++ {
		po := off + i*mem.PageSize
		// Evict flushes stale translations (PTE, TLB, decoded pages) in
		// every importing space through the region's watcher list.
		if f := reg.R.Evict(po); f != nil {
			k.Alloc.Free(f)
		}
	}
	k.Return(t, sys.EOK)
	return sys.KOK
}

// ---------------------------------------------------------------------------
// Long calls: "can be expected to sleep indefinitely" (Table 1).

// sysMutexLock is the canonical long call (Table 1). Interrupted waiters
// are rolled back and return EINTR; in the process model a woken waiter
// continues in place, in the interrupt model it restarts the syscall —
// with identical user-visible semantics.
func (k *Kernel) sysMutexLock(t *obj.Thread) sys.KErr {
	o, e, kerr := k.objAt(t, t.Regs.R[1], sys.ObjMutex, false)
	if kerr != sys.KOK {
		return kerr
	}
	if e != sys.EOK {
		k.Return(t, e)
		return sys.KOK
	}
	m := o.(*obj.Mutex)
	for m.Locked {
		if kerr := k.block(&m.Waiters, true); kerr != sys.KOK {
			return kerr
		}
		if m.Dead {
			k.Return(t, sys.ESRCH)
			return sys.KOK
		}
	}
	m.Locked = true
	m.Holder = t
	k.Return(t, sys.EOK)
	return sys.KOK
}

// sysThreadWait joins the thread at R1, returning its exit code in R1.
// Dead-but-bound handles resolve so a joiner that restarts after the
// target's exit still completes.
func (k *Kernel) sysThreadWait(t *obj.Thread) sys.KErr {
	target, e, kerr := k.lookupThreadArg(t, t.Regs.R[1], true)
	if kerr != sys.KOK {
		return kerr
	}
	if e != sys.EOK {
		k.Return(t, e)
		return sys.KOK
	}
	if target == t {
		k.Return(t, sys.EINVAL)
		return sys.KOK
	}
	for !target.Exited {
		if kerr := k.block(&target.ExitWaiters, true); kerr != sys.KOK {
			return kerr
		}
	}
	t.Regs.R[1] = target.ExitCode
	k.Return(t, sys.EOK)
	return sys.KOK
}

// sleepLoop blocks until virtual time reaches deadline (in cycles).
func (k *Kernel) sleepLoop(t *obj.Thread, deadline uint64) sys.KErr {
	for k.cur.clk.Now() < deadline {
		tt := t
		t.SleepTimer = k.cur.clk.At(deadline, func(uint64) {
			if tt.WaitQ == &k.sleepers {
				k.wakeThread(tt)
			}
		})
		kerr := k.block(&k.sleepers, true)
		if kerr == sys.KIntr {
			if t.SleepTimer != nil {
				t.SleepTimer.Stop()
				t.SleepTimer = nil
			}
			return sys.KIntr
		}
		if kerr != sys.KOK {
			return kerr
		}
	}
	k.Return(t, sys.EOK)
	return sys.KOK
}

// sysThreadSleep sleeps for R1 microseconds. The absolute deadline is
// rolled forward into R2/R3 on first entry so a restart resumes the same
// sleep instead of starting a new one — the registers are the
// continuation.
func (k *Kernel) sysThreadSleep(t *obj.Thread) sys.KErr {
	if t.Regs.R[2] == 0 && t.Regs.R[3] == 0 {
		if t.Regs.R[1] == 0 {
			k.Return(t, sys.EOK)
			return sys.KOK
		}
		deadline := k.cur.clk.Now() + uint64(t.Regs.R[1])*clock.CyclesPerMicrosecond
		t.Regs.R[2] = uint32(deadline)
		t.Regs.R[3] = uint32(deadline >> 32)
		k.CommitProgress(t)
	}
	deadline := uint64(t.Regs.R[2]) | uint64(t.Regs.R[3])<<32
	return k.sleepLoop(t, deadline)
}

// sysClockAlarmWait sleeps until the absolute virtual time R2:R1
// microseconds. Being parameterized by an absolute time, it is naturally
// restart-idempotent.
func (k *Kernel) sysClockAlarmWait(t *obj.Thread) sys.KErr {
	us := uint64(t.Regs.R[1]) | uint64(t.Regs.R[2])<<32
	return k.sleepLoop(t, us*clock.CyclesPerMicrosecond)
}

// sysThreadSuspendSelf completes the call (so the thread is observable
// only before or after it), marks the thread stopped, and gives up the
// CPU until thread_resume.
func (k *Kernel) sysThreadSuspendSelf(t *obj.Thread) sys.KErr {
	k.Return(t, sys.EOK)
	t.Stopped = true
	t.State = obj.ThReady
	k.clearResched(k.cur)
	snap := k.parkRelease()
	if k.cfg.Model == ModelInterrupt {
		return sys.KWouldBlock
	}
	k.yieldProcess(t, yBlocked)
	k.parkReacquire(snap)
	return sys.KOK
}

// sysIRQWait blocks until the virtual interrupt line R1 is raised. R2 is
// an arming flag the kernel rolls forward: 0 on first entry, 1 once the
// thread has armed and slept, so a post-wake restart completes instead of
// re-blocking (the event would otherwise be lost).
func (k *Kernel) sysIRQWait(t *obj.Thread) sys.KErr {
	line := t.Regs.R[1]
	if line >= NumIRQLines {
		k.Return(t, sys.EINVAL)
		return sys.KOK
	}
	if t.Regs.R[2] == 1 {
		t.Regs.R[2] = 0
		k.Return(t, sys.EOK)
		return sys.KOK
	}
	if k.irqPending[line] {
		// A latched edge arrived before we waited; consume it.
		k.irqPending[line] = false
		k.Return(t, sys.EOK)
		return sys.KOK
	}
	t.Regs.R[2] = 1
	k.CommitProgress(t)
	kerr := k.block(&k.irq[line], true)
	if kerr != sys.KOK {
		if kerr == sys.KIntr {
			t.Regs.R[2] = 0
		}
		return kerr
	}
	t.Regs.R[2] = 0
	k.Return(t, sys.EOK)
	return sys.KOK
}

// sysPortsetWait blocks until some port in the portset at R1 has pending
// work, without receiving it.
func (k *Kernel) sysPortsetWait(t *obj.Thread) sys.KErr {
	o, e, kerr := k.objAt(t, t.Regs.R[1], sys.ObjPortset, false)
	if kerr != sys.KOK {
		return kerr
	}
	if e != sys.EOK {
		k.Return(t, e)
		return sys.KOK
	}
	ps := o.(*obj.Portset)
	for ps.PendingPort() == nil {
		if ps.Dead {
			k.Return(t, sys.ESRCH)
			return sys.KOK
		}
		if kerr := k.block(&ps.Servers, true); kerr != sys.KOK {
			return kerr
		}
	}
	k.Return(t, sys.EOK)
	return sys.KOK
}

// sysSpaceReapWait blocks until the space at R1 has been destroyed.
func (k *Kernel) sysSpaceReapWait(t *obj.Thread) sys.KErr {
	o, e, kerr := k.objAt(t, t.Regs.R[1], sys.ObjSpace, true)
	if kerr != sys.KOK {
		return kerr
	}
	if e != sys.EOK {
		k.Return(t, e)
		return sys.KOK
	}
	s := o.(*obj.Space)
	for !s.Dead {
		if kerr := k.block(&s.ReapWaiters, true); kerr != sys.KOK {
			return kerr
		}
	}
	k.Return(t, sys.EOK)
	return sys.KOK
}

// ---------------------------------------------------------------------------
// Non-IPC multi-stage calls.

// sysCondWait atomically releases the mutex at R2 and waits on the
// condition variable at R1. It is the paper's flagship example (§4.3):
// before sleeping, the thread's PC is re-pointed at the mutex_lock
// entrypoint with the mutex in R1 — so an interrupted or woken thread
// automatically retries the mutex lock, not the whole wait, and its
// exported state is always a valid restart point.
func (k *Kernel) sysCondWait(t *obj.Thread) sys.KErr {
	co, e, kerr := k.objAt(t, t.Regs.R[1], sys.ObjCond, false)
	if kerr != sys.KOK {
		return kerr
	}
	if e != sys.EOK {
		k.Return(t, e)
		return sys.KOK
	}
	mo, e, kerr := k.objAt(t, t.Regs.R[2], sys.ObjMutex, false)
	if kerr != sys.KOK {
		return kerr
	}
	if e != sys.EOK {
		k.Return(t, e)
		return sys.KOK
	}
	c := co.(*obj.Cond)
	m := mo.(*obj.Mutex)
	if !m.Locked || m.Holder != t {
		k.Return(t, sys.ESTATE)
		return sys.KOK
	}

	// Stage 1 -> stage 2 transition: release the mutex and re-point the
	// continuation at mutex_lock before sleeping.
	mutexVA := t.Regs.R[2]
	m.Locked = false
	m.Holder = nil
	k.wakeOne(&m.Waiters)
	t.Regs.R[1] = mutexVA
	k.SetPC(t, sys.NMutexLock)

	if kerr := k.block(&c.Waiters, true); kerr != sys.KOK {
		return kerr
	}
	// Process model: continue in place with the mutex_lock stage (the
	// interrupt model reaches the same code by restarting at the
	// rewritten PC).
	return k.sysMutexLock(t)
}

// sysRegionSearch scans the address range [R1, R1+R2) of the caller's
// space for the first bound kernel-object handle, returning it in R1 (or
// ENOTFOUND). It can be passed an arbitrarily large range (paper §4.2),
// so it advances R1/R2 across chunk stages — the registers always show
// exactly how much range remains.
func (k *Kernel) sysRegionSearch(t *obj.Thread) sys.KErr {
	for t.Regs.R[2] > 0 {
		start := t.Regs.R[1]
		chunk := uint32(RegionSearchChunkPages) * mem.PageSize
		if t.Regs.R[2] < chunk {
			chunk = t.Regs.R[2]
		}
		pages := (chunk + mem.PageSize - 1) / mem.PageSize
		oldTag := profTag(t, profile.PathRegionSearch)
		k.ChargeKernel(uint64(pages) * CycRegionSearchPage)
		profRestore(t, oldTag)
		found := false
		t.Space.Walk(start, chunk, func(va uint32, _ obj.Obj) {
			if !found {
				t.Regs.R[1], found = va, true // the lowest handle
			}
		})
		if found {
			t.Regs.R[2] = 0
			k.Return(t, sys.EOK)
			return sys.KOK
		}
		// Stage boundary: roll the range forward; an interrupted
		// search resumes exactly here.
		t.Regs.R[1] = start + chunk
		t.Regs.R[2] -= chunk
		k.CommitProgress(t)
		if t.Interrupted {
			t.Interrupted = false
			k.cur.stats.Interrupts++
			return sys.KIntr
		}
	}
	k.Return(t, sys.ENOTFOUND)
	return sys.KOK
}
