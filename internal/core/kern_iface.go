package core

import (
	"repro/internal/obj"
	"repro/internal/sys"
)

// Exported wrappers completing the kernel-services surface the IPC engine
// (internal/ipc) programs against. Together with ChargeKernel, Block,
// PreemptPoint, Return, SetPC, Current and CommitProgress they satisfy
// ipc.Kern.

// WakeThread makes a blocked thread runnable (removing it from its wait
// queue and cancelling any sleep timer).
func (k *Kernel) WakeThread(t *obj.Thread) { k.wakeThread(t) }

// ObjAt resolves the object handle at va in t's space; see objAt.
func (k *Kernel) ObjAt(t *obj.Thread, va uint32, want sys.ObjType, allowDead bool) (obj.Obj, sys.Errno, sys.KErr) {
	return k.objAt(t, va, want, allowDead)
}

// Settle drives a thread preempted mid-kernel (full-preemption process
// model) to a clean boundary so its exported state is consistent. It is a
// no-op for threads already at a boundary and in the interrupt model.
func (k *Kernel) Settle(t *obj.Thread) {
	if k.cfg.Model == ModelProcess && t.InKernelPark {
		k.settle(t)
	}
}

// ApplyThreadState restores an exported state frame into a stopped
// thread; see state.go for the frame layout.
func (k *Kernel) ApplyThreadState(target *obj.Thread, w [ThreadStateWords]uint32) {
	k.applyThreadState(target, w)
}
