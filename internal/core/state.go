package core

import (
	"repro/internal/obj"
	"repro/internal/profile"
	"repro/internal/sys"
)

// ThreadStateWords is the size of the exported thread state frame in
// 32-bit words: the complete register file (including the PR0/PR1
// pseudo-registers), scheduling parameters, control flags, and both IPC
// connection halves. This frame is the whole story — there is no hidden
// kernel state behind it, which is what makes user-level checkpointing and
// migration possible (paper §4.1).
const ThreadStateWords = 20

// Thread state frame layout (word indexes). Spelled out explicitly: an
// earlier iota-based version silently aliased every constant after the
// register block to the same index (Go repeats the previous expression,
// not iota, for bare constants following an assignment) — caught by
// TestPropertyStateFrameRoundTrip.
const (
	TSPc          = 0
	TSSp          = 1
	TSR0          = 2 // .. TSR0+7 == 9
	TSPr0         = 10
	TSPr1         = 11
	TSFlags       = 12
	TSPriority    = 13
	TSCtl         = 14 // bit0 stopped, bit1 interrupted
	TSIPCPhase    = 15 // client connection half
	TSIPCPeer     = 16 // client peer thread ID
	TSIPCSrvPhase = 17 // server connection half
	TSIPCSrvPeer  = 18 // server peer thread ID
	tsReserved    = 19
)

// EncodeThreadState captures t's exported state frame.
func EncodeThreadState(t *obj.Thread) [ThreadStateWords]uint32 {
	var w [ThreadStateWords]uint32
	w[TSPc] = t.Regs.PC
	w[TSSp] = t.Regs.SP
	for i := 0; i < 8; i++ {
		w[TSR0+i] = t.Regs.R[i]
	}
	w[TSPr0] = t.Regs.PR0
	w[TSPr1] = t.Regs.PR1
	w[TSFlags] = t.Regs.Flags
	w[TSPriority] = uint32(t.Priority)
	var ctl uint32
	if t.Stopped {
		ctl |= 1
	}
	if t.Interrupted {
		ctl |= 2
	}
	w[TSCtl] = ctl
	w[TSIPCPhase] = uint32(t.IPCClient.Phase)
	if t.IPCClient.Peer != nil {
		w[TSIPCPeer] = t.IPCClient.Peer.ID
	}
	w[TSIPCSrvPhase] = uint32(t.IPCServer.Phase)
	if t.IPCServer.Peer != nil {
		w[TSIPCSrvPeer] = t.IPCServer.Peer.ID
	}
	return w
}

// applyThreadState restores a state frame into target (which is stopped).
func (k *Kernel) applyThreadState(target *obj.Thread, w [ThreadStateWords]uint32) {
	target.Regs.PC = w[TSPc]
	target.Regs.SP = w[TSSp]
	for i := 0; i < 8; i++ {
		target.Regs.R[i] = w[TSR0+i]
	}
	target.Regs.PR0 = w[TSPr0]
	target.Regs.PR1 = w[TSPr1]
	target.Regs.Flags = w[TSFlags]
	if p := int(w[TSPriority]); p >= 0 && p < 32 {
		target.Priority = p
	}
	target.Interrupted = w[TSCtl]&2 != 0
	// The stopped bit is ignored on restore: the manager resumes the
	// thread explicitly (thread_resume).

	k.relinkHalf(target, &target.IPCClient, obj.IPCPhase(w[TSIPCPhase]&0xFF), w[TSIPCPeer], false)
	k.relinkHalf(target, &target.IPCServer, obj.IPCPhase(w[TSIPCSrvPhase]&0xFF), w[TSIPCSrvPeer], true)
}

// relinkHalf restores one connection half: if the named peer still exists
// and its opposite half is vacant or pointed at a dead thread, reconnect;
// otherwise the half restores idle (the restarted operation observes
// ENOTCONN, a clean outcome).
func (k *Kernel) relinkHalf(target *obj.Thread, st *obj.IPCState, phase obj.IPCPhase, peerID uint32, server bool) {
	if phase == obj.IPCIdle {
		*st = obj.IPCState{}
		return
	}
	peer := k.threads[peerID]
	if peer == nil {
		*st = obj.IPCState{}
		return
	}
	other := &peer.IPCServer
	if server {
		other = &peer.IPCClient
	}
	if other.Phase != obj.IPCIdle &&
		(other.Peer == nil || other.Peer.State == obj.ThDead || other.Peer == target) {
		*st = obj.IPCState{Phase: phase, Peer: peer}
		other.Peer = target
	} else {
		*st = obj.IPCState{}
	}
}

// opGetState implements the get_state common op: R1 = handle, R2 = user
// buffer receiving the type-specific state words. For threads this is the
// checkpoint/migration primitive; the API guarantees it is prompt (never
// waits on user-mode activity) and correct (the frame fully describes the
// thread).
func (k *Kernel) opGetState(t *obj.Thread, ot sys.ObjType) sys.KErr {
	o, e, kerr := k.objAt(t, t.Regs.R[1], ot, true)
	if kerr != sys.KOK {
		return kerr
	}
	if e != sys.EOK {
		k.Return(t, e)
		return sys.KOK
	}
	oldTag := profTag(t, profile.PathGetSetState)
	k.ChargeKernel(CycGetSetState)
	profRestore(t, oldTag)
	buf := t.Regs.R[2]
	var words []uint32
	switch x := o.(type) {
	case *obj.Thread:
		if k.cfg.Model == ModelProcess && x.InKernelPark {
			// Full preemption can park a thread mid-kernel; drive
			// it to a clean boundary first. This involves only
			// kernel-internal work, preserving promptness.
			k.settle(x)
		}
		w := EncodeThreadState(x)
		words = w[:]
	case *obj.Mutex:
		locked := uint32(0)
		if x.Locked {
			locked = 1
		}
		holder := uint32(0)
		if x.Holder != nil {
			holder = x.Holder.ID
		}
		words = []uint32{locked, holder, uint32(x.Waiters.Len())}
	case *obj.Cond:
		words = []uint32{uint32(x.Waiters.Len())}
	case *obj.Region:
		flags := uint32(0)
		if x.R.DemandZero {
			flags |= 1
		}
		if x.R.Pager != nil {
			flags |= 2
		}
		words = []uint32{x.R.Size, flags, uint32(x.R.PresentPages())}
	case *obj.Mapping:
		words = []uint32{x.M.Base, x.M.Size, uint32(x.M.Perm), x.M.RegionOff}
	case *obj.Port:
		inSet := uint32(0)
		if x.Set != nil {
			inSet = 1
		}
		words = []uint32{inSet, uint32(x.Connectors.Len())}
	case *obj.Portset:
		pending := uint32(0)
		if x.PendingPort() != nil {
			pending = 1
		}
		words = []uint32{uint32(len(x.Ports)), pending}
	case *obj.Space:
		words = []uint32{uint32(x.Len()), uint32(len(x.Threads))}
	case *obj.Ref:
		tt := uint32(0)
		if x.Target != nil {
			tt = uint32(obj.TypeOf(x.Target)) + 1
		}
		words = []uint32{tt}
	}
	for i, w := range words {
		if kerr := k.StoreUser32(t, t.Space, buf+uint32(i)*4, w); kerr != sys.KOK {
			return kerr
		}
	}
	t.Regs.R[1] = uint32(len(words)) // words written
	k.Return(t, sys.EOK)
	return sys.KOK
}

// opSetState implements the set_state common op: R1 = handle, R2 = user
// buffer holding the state words. Thread targets must be stopped; the
// frame is read in full before any of it is applied, so a fault mid-read
// restarts without partial effects.
func (k *Kernel) opSetState(t *obj.Thread, ot sys.ObjType) sys.KErr {
	o, e, kerr := k.objAt(t, t.Regs.R[1], ot, false)
	if kerr != sys.KOK {
		return kerr
	}
	if e != sys.EOK {
		k.Return(t, e)
		return sys.KOK
	}
	oldTag := profTag(t, profile.PathGetSetState)
	k.ChargeKernel(CycGetSetState)
	profRestore(t, oldTag)
	buf := t.Regs.R[2]
	switch x := o.(type) {
	case *obj.Thread:
		if x != t && !x.Stopped {
			k.Return(t, sys.ESTATE)
			return sys.KOK
		}
		if x == t {
			k.Return(t, sys.ESTATE) // cannot rewrite the running thread
			return sys.KOK
		}
		var w [ThreadStateWords]uint32
		for i := range w {
			v, kerr := k.LoadUser32(t, t.Space, buf+uint32(i)*4)
			if kerr != sys.KOK {
				return kerr
			}
			w[i] = v
		}
		k.applyThreadState(x, w)
	case *obj.Mutex:
		v, kerr := k.LoadUser32(t, t.Space, buf)
		if kerr != sys.KOK {
			return kerr
		}
		if x.Waiters.Len() > 0 {
			k.Return(t, sys.EBUSY)
			return sys.KOK
		}
		x.Locked = v&1 != 0
		if !x.Locked {
			x.Holder = nil
		}
	case *obj.Region:
		v, kerr := k.LoadUser32(t, t.Space, buf)
		if kerr != sys.KOK {
			return kerr
		}
		if x.R.Pager == nil { // pager-backed regions keep their pager
			x.R.DemandZero = v&1 != 0
		}
	default:
		// The remaining types have no settable state; accept and
		// ignore, as Fluke's uniform interface does.
	}
	k.Return(t, sys.EOK)
	return sys.KOK
}
