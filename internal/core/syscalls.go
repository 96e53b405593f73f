package core

import (
	"repro/internal/cpu"
	"repro/internal/mem"
	"repro/internal/mmu"
	"repro/internal/obj"
	"repro/internal/profile"
	"repro/internal/sys"
)

// AnyObjType matches any object type in objAt.
const AnyObjType sys.ObjType = 0xFF

// registerHandlers fills the syscall table. Handlers are written in the
// paper's Figure-4 atomic style: they communicate with user code only
// through the register save area, roll parameters forward to record
// partial progress, and return kernel-internal codes for blocking,
// faulting and preemption.
func (k *Kernel) registerHandlers() {
	// Trivial.
	k.handlers[sys.NNull] = (*Kernel).sysNull
	k.handlers[sys.NThreadSelf] = (*Kernel).sysThreadSelf
	k.handlers[sys.NSpaceSelf] = (*Kernel).sysSpaceSelf
	k.handlers[sys.NClockGet] = (*Kernel).sysClockGet
	k.handlers[sys.NCPUSelf] = (*Kernel).sysCPUSelf
	k.handlers[sys.NAPIVersion] = (*Kernel).sysAPIVersion
	k.handlers[sys.NThreadPrioritySelf] = (*Kernel).sysThreadPrioritySelf
	k.handlers[sys.NPerfRead] = (*Kernel).sysPerfRead

	// The 9x6 common object operations.
	for ot := sys.ObjType(0); ot < sys.NumObjTypes; ot++ {
		for op := sys.CommonOp(0); op < sys.NumCommonOps; op++ {
			ot, op := ot, op
			k.handlers[sys.CommonOpNum(ot, op)] = func(k *Kernel, t *obj.Thread) sys.KErr {
				return k.commonOp(t, ot, op)
			}
		}
	}

	// Type-specific short calls.
	k.handlers[sys.NMutexTrylock] = (*Kernel).sysMutexTrylock
	k.handlers[sys.NMutexUnlock] = (*Kernel).sysMutexUnlock
	k.handlers[sys.NCondSignal] = (*Kernel).sysCondSignal
	k.handlers[sys.NCondBroadcast] = (*Kernel).sysCondBroadcast
	k.handlers[sys.NThreadInterrupt] = (*Kernel).sysThreadInterrupt
	k.handlers[sys.NThreadStop] = (*Kernel).sysThreadStop
	k.handlers[sys.NThreadResume] = (*Kernel).sysThreadResume
	k.handlers[sys.NThreadSetPriority] = (*Kernel).sysThreadSetPriority
	k.handlers[sys.NSchedYield] = (*Kernel).sysSchedYield
	k.handlers[sys.NRegionProtect] = (*Kernel).sysRegionProtect
	k.handlers[sys.NPortsetAdd] = (*Kernel).sysPortsetAdd
	k.handlers[sys.NPortsetRemove] = (*Kernel).sysPortsetRemove
	k.handlers[sys.NMemAllocate] = (*Kernel).sysMemAllocate
	k.handlers[sys.NMemFree] = (*Kernel).sysMemFree

	// Long calls.
	k.handlers[sys.NMutexLock] = (*Kernel).sysMutexLock
	k.handlers[sys.NThreadWait] = (*Kernel).sysThreadWait
	k.handlers[sys.NThreadSleep] = (*Kernel).sysThreadSleep
	k.handlers[sys.NThreadSuspendSelf] = (*Kernel).sysThreadSuspendSelf
	k.handlers[sys.NClockAlarmWait] = (*Kernel).sysClockAlarmWait
	k.handlers[sys.NIRQWait] = (*Kernel).sysIRQWait
	k.handlers[sys.NPortsetWait] = (*Kernel).sysPortsetWait
	k.handlers[sys.NSpaceReapWait] = (*Kernel).sysSpaceReapWait

	// Multi-stage, non-IPC.
	k.handlers[sys.NCondWait] = (*Kernel).sysCondWait
	k.handlers[sys.NRegionSearch] = (*Kernel).sysRegionSearch

	k.registerIPCHandlers()
}

// ---------------------------------------------------------------------------
// User-memory and handle helpers. On a fault they record it on the thread
// and return KFault; the dispatch layer remedies the fault and the syscall
// restarts from its rolled-forward registers.

func (k *Kernel) faultOut(t *obj.Thread, spc *obj.Space, f *cpu.Fault) sys.KErr {
	t.PendingFault = *f
	t.PendingFaultSpace = spc
	return sys.KFault
}

// LoadUser32 reads a user word from spc.
func (k *Kernel) LoadUser32(t *obj.Thread, spc *obj.Space, va uint32) (uint32, sys.KErr) {
	v, f := spc.AS.Load32(va)
	if f != nil {
		return 0, k.faultOut(t, spc, f)
	}
	return v, sys.KOK
}

// StoreUser32 writes a user word into spc.
func (k *Kernel) StoreUser32(t *obj.Thread, spc *obj.Space, va uint32, v uint32) sys.KErr {
	if f := spc.AS.Store32(va, v); f != nil {
		return k.faultOut(t, spc, f)
	}
	return sys.KOK
}

// LoadUser8 reads a user byte from spc.
func (k *Kernel) LoadUser8(t *obj.Thread, spc *obj.Space, va uint32) (byte, sys.KErr) {
	b, f := spc.AS.Load8(va)
	if f != nil {
		return 0, k.faultOut(t, spc, f)
	}
	return b, sys.KOK
}

// objAt resolves the object handle at va in t's space. As in Fluke, the
// handle's page must be mapped: if it is not, the syscall faults and
// restarts after the fault is remedied — this is what makes "short"
// syscalls restartable (paper §4.3's port_reference example).
//
// allowDead permits resolving objects that have been destroyed but whose
// handle is still bound (thread_wait on an exited thread).
func (k *Kernel) objAt(t *obj.Thread, va uint32, want sys.ObjType, allowDead bool) (obj.Obj, sys.Errno, sys.KErr) {
	oldTag := profTag(t, profile.PathObjLookup)
	k.ChargeKernel(CycObjLookup)
	profRestore(t, oldTag)
	if !t.Space.AS.Present(va, cpu.Read) {
		cl, _ := t.Space.AS.Classify(va, cpu.Read)
		if cl == mmu.FaultFatal {
			return nil, sys.ESRCH, sys.KOK
		}
		return nil, 0, k.faultOut(t, t.Space, &cpu.Fault{VA: va, Access: cpu.Read})
	}
	o := t.Space.At(va)
	if o == nil {
		return nil, sys.ESRCH, sys.KOK
	}
	if o.Hdr().Dead && !allowDead {
		return nil, sys.ESRCH, sys.KOK
	}
	if want != AnyObjType && obj.TypeOf(o) != want {
		return nil, sys.ESRCH, sys.KOK
	}
	return o, sys.EOK, sys.KOK
}

// derefRegion accepts a Region handle or a Reference-to-Region handle.
func derefRegion(o obj.Obj) *obj.Region {
	switch x := o.(type) {
	case *obj.Region:
		return x
	case *obj.Ref:
		if r, ok := x.Target.(*obj.Region); ok && !r.Dead {
			return r
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Trivial syscalls: always run to completion without sleeping (Table 1).

func (k *Kernel) sysNull(t *obj.Thread) sys.KErr {
	k.Return(t, sys.EOK)
	return sys.KOK
}

func (k *Kernel) sysThreadSelf(t *obj.Thread) sys.KErr {
	t.Regs.R[1] = t.VA
	t.Regs.R[2] = t.ID
	k.Return(t, sys.EOK)
	return sys.KOK
}

func (k *Kernel) sysSpaceSelf(t *obj.Thread) sys.KErr {
	t.Regs.R[1] = t.Space.VA
	k.Return(t, sys.EOK)
	return sys.KOK
}

func (k *Kernel) sysClockGet(t *obj.Thread) sys.KErr {
	us := k.cur.clk.Now() / 200 // cycles -> µs
	t.Regs.R[1] = uint32(us)
	t.Regs.R[2] = uint32(us >> 32)
	k.Return(t, sys.EOK)
	return sys.KOK
}

func (k *Kernel) sysCPUSelf(t *obj.Thread) sys.KErr {
	t.Regs.R[1] = uint32(k.cur.id)
	k.Return(t, sys.EOK)
	return sys.KOK
}

func (k *Kernel) sysAPIVersion(t *obj.Thread) sys.KErr {
	t.Regs.R[1] = sys.APIVersionValue
	k.Return(t, sys.EOK)
	return sys.KOK
}

func (k *Kernel) sysThreadPrioritySelf(t *obj.Thread) sys.KErr {
	t.Regs.R[1] = uint32(t.Priority)
	k.Return(t, sys.EOK)
	return sys.KOK
}

// sysPerfRead returns a kernel performance counter selected by R1:
// 0 syscalls, 1 context switches, 2 restarts, 3 user preemptions.
func (k *Kernel) sysPerfRead(t *obj.Thread) sys.KErr {
	var v uint64
	s := k.Stats()
	switch t.Regs.R[1] {
	case 0:
		v = s.Syscalls
	case 1:
		v = s.ContextSwitches
	case 2:
		v = s.Restarts
	case 3:
		v = s.PreemptsUser
	}
	t.Regs.R[1] = uint32(v)
	t.Regs.R[2] = uint32(v >> 32)
	k.Return(t, sys.EOK)
	return sys.KOK
}

// ---------------------------------------------------------------------------
// The common object operations (create, destroy, rename, reference,
// get_state, set_state) — 54 short syscalls implemented over shared
// machinery, as in Fluke.

func (k *Kernel) commonOp(t *obj.Thread, ot sys.ObjType, op sys.CommonOp) sys.KErr {
	switch op {
	case sys.OpCreate:
		return k.opCreate(t, ot)
	case sys.OpDestroy:
		return k.opDestroy(t, ot)
	case sys.OpRename:
		return k.opRename(t, ot)
	case sys.OpReference:
		return k.opReference(t, ot)
	case sys.OpGetState:
		return k.opGetState(t, ot)
	case sys.OpSetState:
		return k.opSetState(t, ot)
	}
	k.Return(t, sys.EINVAL)
	return sys.KOK
}

// opCreate creates an object of type ot at handle address R1. The handle's
// page must be mapped (fault + restart otherwise). Type-specific
// parameters follow in R2..R5.
func (k *Kernel) opCreate(t *obj.Thread, ot sys.ObjType) sys.KErr {
	va := t.Regs.R[1]
	// The handle lives in user memory: touching it may fault.
	if !t.Space.AS.Present(va, cpu.Write) {
		cl, _ := t.Space.AS.Classify(va, cpu.Write)
		if cl == mmu.FaultFatal {
			k.Return(t, sys.EFAULT)
			return sys.KOK
		}
		return k.faultOut(t, t.Space, &cpu.Fault{VA: va, Access: cpu.Write})
	}

	var o obj.Obj
	switch ot {
	case sys.ObjRegion:
		size := t.Regs.R[2]
		if mem.PageRound(size) == 0 { // zero, or so large the round-up wraps to zero
			k.Return(t, sys.EINVAL)
			return sys.KOK
		}
		demandZero := t.Regs.R[3]&1 != 0
		o = &obj.Region{Header: obj.Header{Type: ot}, R: mmu.NewRegion(size, demandZero)}
	case sys.ObjMapping:
		src, e, kerr := k.objAt(t, t.Regs.R[2], AnyObjType, false)
		if kerr != sys.KOK {
			return kerr
		}
		if e != sys.EOK {
			k.Return(t, e)
			return sys.KOK
		}
		reg := derefRegion(src)
		if reg == nil {
			k.Return(t, sys.ESRCH)
			return sys.KOK
		}
		mm := &mmu.Mapping{
			Region:    reg.R,
			RegionOff: t.Regs.R[5],
			Base:      t.Regs.R[3],
			Size:      t.Regs.R[4],
			Perm:      mmu.PermRWX,
		}
		if err := t.Space.AS.Map(mm); err != nil {
			k.Return(t, sys.EINVAL)
			return sys.KOK
		}
		o = &obj.Mapping{Header: obj.Header{Type: ot}, M: mm, Dst: t.Space}
	case sys.ObjThread:
		nt := k.makeThread(t.Space, t.Priority)
		o = nt
	case sys.ObjSpace:
		s := k.newSpaceInternal()
		o = s
	default:
		var e sys.Errno
		o, e = obj.New(ot)
		if e != sys.EOK {
			k.Return(t, e)
			return sys.KOK
		}
	}
	if e := t.Space.Insert(va, o); e != sys.EOK {
		// Undo side effects for the heavier types.
		if nt, ok := o.(*obj.Thread); ok {
			k.DestroyThread(nt)
		}
		k.Return(t, e)
		return sys.KOK
	}
	k.Return(t, sys.EOK)
	return sys.KOK
}

func (k *Kernel) opDestroy(t *obj.Thread, ot sys.ObjType) sys.KErr {
	o, e, kerr := k.objAt(t, t.Regs.R[1], ot, false)
	if kerr != sys.KOK {
		return kerr
	}
	if e != sys.EOK {
		k.Return(t, e)
		return sys.KOK
	}
	h := o.Hdr()
	switch x := o.(type) {
	case *obj.Mutex:
		h.Dead = true
		k.wakeAll(&x.Waiters) // waiters retry, observe death, get ESRCH
	case *obj.Cond:
		h.Dead = true
		// cond waiters have already been re-pointed at mutex_lock;
		// waking them sends them there (paper §4.3).
		k.wakeAll(&x.Waiters)
	case *obj.Port:
		h.Dead = true
		k.wakeAll(&x.Connectors)
		if x.Set != nil {
			x.Set.RemovePort(x)
		}
	case *obj.Portset:
		h.Dead = true
		k.wakeAll(&x.Servers)
		for _, p := range append([]*obj.Port(nil), x.Ports...) {
			x.RemovePort(p)
		}
	case *obj.Region:
		h.Dead = true
		// Future faults on the region become fatal; wake waiters so
		// they observe it.
		x.R.Pager = nil
		x.R.DemandZero = false
		k.wakeAll(&x.FaultWaiters)
	case *obj.Mapping:
		h.Dead = true
		x.Dst.AS.Unmap(x.M)
	case *obj.Ref:
		if x.Target != nil {
			x.Target.Hdr().Refs--
			x.Target = nil
		}
		h.Dead = true
	case *obj.Thread:
		if x == t {
			t.Space.Remove(h.VA)
			k.Return(t, sys.EOK) // unreachable by the user, but consistent
			k.exitThread(t, 0)
			return sys.KDead
		}
		k.DestroyThread(x)
	case *obj.Space:
		return k.destroySpace(t, x)
	}
	t.Space.Remove(h.VA)
	k.Return(t, sys.EOK)
	return sys.KOK
}

// destroySpace destroys a whole space: every thread in it dies, waiters in
// space_reap_wait wake. If the caller lives in the destroyed space it dies
// too (last).
func (k *Kernel) destroySpace(t *obj.Thread, s *obj.Space) sys.KErr {
	s.Hdr().Dead = true
	suicide := false
	for _, th := range append([]*obj.Thread(nil), s.Threads...) {
		if th == t {
			suicide = true
			continue
		}
		k.DestroyThread(th)
	}
	k.wakeAll(&s.ReapWaiters)
	s.Each(func(_ uint32, o obj.Obj) { o.Hdr().Dead = true })
	s.Clear()
	// The space handle stays bound (dead) in the caller's space so
	// space_reap_wait restarts still resolve it — the same rule as dead
	// thread handles for thread_wait.
	if suicide {
		k.exitThread(t, 0)
		return sys.KDead
	}
	k.Return(t, sys.EOK)
	return sys.KOK
}

// opRename reads a name of R3 bytes (max 32) from user address R2 and
// attaches it to the object at R1. The user-memory read makes rename a
// faultable, restartable short call.
func (k *Kernel) opRename(t *obj.Thread, ot sys.ObjType) sys.KErr {
	o, e, kerr := k.objAt(t, t.Regs.R[1], ot, false)
	if kerr != sys.KOK {
		return kerr
	}
	if e != sys.EOK {
		k.Return(t, e)
		return sys.KOK
	}
	n := t.Regs.R[3]
	if n > 32 {
		k.Return(t, sys.EINVAL)
		return sys.KOK
	}
	buf := make([]byte, 0, n)
	for i := uint32(0); i < n; i++ {
		b, kerr := k.LoadUser8(t, t.Space, t.Regs.R[2]+i)
		if kerr != sys.KOK {
			return kerr
		}
		buf = append(buf, b)
	}
	o.Hdr().Name = string(buf)
	k.Return(t, sys.EOK)
	return sys.KOK
}

// opReference points the Reference at R2 at the object of type ot at R1
// (paper §4.3: port_reference "takes a Port object and a Reference object
// and 'points' the reference at the port"). Only Mapping, Region, Port,
// Thread and Space objects can be referenced (Table 2).
func (k *Kernel) opReference(t *obj.Thread, ot sys.ObjType) sys.KErr {
	switch ot {
	case sys.ObjMapping, sys.ObjRegion, sys.ObjPort, sys.ObjThread, sys.ObjSpace:
	default:
		k.Return(t, sys.EINVAL)
		return sys.KOK
	}
	o, e, kerr := k.objAt(t, t.Regs.R[1], ot, false)
	if kerr != sys.KOK {
		return kerr
	}
	if e != sys.EOK {
		k.Return(t, e)
		return sys.KOK
	}
	ro, e, kerr := k.objAt(t, t.Regs.R[2], sys.ObjRef, false)
	if kerr != sys.KOK {
		return kerr
	}
	if e != sys.EOK {
		k.Return(t, e)
		return sys.KOK
	}
	ref := ro.(*obj.Ref)
	if ref.Target != nil {
		ref.Target.Hdr().Refs--
	}
	ref.Target = o
	o.Hdr().Refs++
	k.Return(t, sys.EOK)
	return sys.KOK
}
