// Package ipc implements Fluke's connection-oriented reliable IPC — the
// richest multi-stage part of the atomic API, and the subject of the
// paper's Figures 2–4 and Tables 3/5/6.
//
// Every operation follows the Figure-4 style the paper contrasts with
// process-model (Figure 2) and continuation-model (Figure 3) kernels:
//
//   - transfer parameters live in user registers: R1 is the buffer
//     pointer, R2 the word count, and both roll forward as data moves;
//   - stage transitions rewrite the user PC to the next entrypoint
//     (ipc_client_connect_send becomes ipc_client_send once the
//     connection exists, send_over_receive becomes receive after the
//     turnaround), so the user-visible register state is the
//     continuation;
//   - a handler that must wait returns a kernel-internal code after
//     leaving the registers consistent; nothing about the operation
//     lives on a kernel stack.
//
// Each thread carries two independent connection halves — client
// (initiated) and server (accepted) — so servers can hold a request open
// while making RPCs downstream. The ipc_client_* entrypoints operate on
// the client half, the ipc_server_*/wait entrypoints on the server half;
// a thread's registers describe at most one in-progress transfer at a
// time, whichever half it is currently blocked on.
//
// The engine is written against the Kern interface so it is independent
// of the kernel's execution model: under the interrupt model blocking
// unwinds and the operation restarts from its registers; under the
// process model blocking parks the thread's kernel-stack context and the
// same code continues in place.
package ipc

import (
	"repro/internal/obj"
	"repro/internal/sys"
)

// anyObjType matches any object type in Kern.ObjAt.
const anyObjType sys.ObjType = 0xFF

// FaultMsgMagic is the second word of a kernel-generated page-fault
// notification message delivered to a pager's portset (the first word is
// the faulting page's byte offset within the managed region).
const FaultMsgMagic uint32 = 0x464C4B46 // "FLKF"

// FaultMsgWords is the length of a fault notification in words.
const FaultMsgWords = 2

// Kern is the kernel-services surface the IPC engine runs on;
// *core.Kernel implements it.
type Kern interface {
	Current() *obj.Thread
	ChargeKernel(cycles uint64)
	ChargeConnect()
	Block(q *obj.WaitQueue, interruptible bool) sys.KErr
	WakeThread(t *obj.Thread)
	// HandoffWake wakes t at a rendezvous-completion point: the caller
	// has just finished a transfer into/out of t and is itself about to
	// block, so the kernel may stage t for a direct time-slice-donating
	// context switch instead of a run-queue pass (the IPC fast path).
	// Semantically identical to WakeThread; only scheduling order and
	// cycle cost differ, and only when the fast path is enabled.
	HandoffWake(t *obj.Thread)
	// CountIPCMiss records that a rendezvous found no peer ready and the
	// caller is about to block — the complement of a fast-path hit.
	CountIPCMiss()
	Return(t *obj.Thread, e sys.Errno)
	SetPC(t *obj.Thread, sysno int)
	CommitProgress(t *obj.Thread)
	ObjAt(t *obj.Thread, va uint32, want sys.ObjType, allowDead bool) (obj.Obj, sys.Errno, sys.KErr)
	StoreUser32(t *obj.Thread, spc *obj.Space, va uint32, v uint32) sys.KErr
	CopyWords(src, dst *obj.Thread) sys.KErr
	// DeliverFault writes the oldest pending page-fault notification of
	// p.FaultRegion into t's receive buffer as a FaultMsgWords-word
	// message, rolling R1/R2 forward and completing the receive.
	DeliverFault(t *obj.Thread, p *obj.Port) (delivered bool, e sys.Errno, kerr sys.KErr)
}

// role selects a thread's connection half.
type role bool

const (
	asClient role = false
	asServer role = true
)

// half returns t's connection half for the role.
func half(t *obj.Thread, r role) *obj.IPCState {
	if r == asServer {
		return &t.IPCServer
	}
	return &t.IPCClient
}

// peerHalf returns the peer's half of the same connection: the opposite
// role.
func peerHalf(p *obj.Thread, r role) *obj.IPCState {
	return half(p, !r)
}

// derefPort accepts a Port handle or a Reference-to-Port handle — the
// usual client-side arrangement is a Reference pointing at the server's
// Port (Table 2).
func derefPort(o obj.Obj) *obj.Port {
	switch x := o.(type) {
	case *obj.Port:
		return x
	case *obj.Ref:
		if p, ok := x.Target.(*obj.Port); ok && !p.Dead {
			return p
		}
	}
	return nil
}

// connectRewrite maps a connect-combining entrypoint to its post-connect
// stage, for rewriting a blocked connector's PC at accept time.
func connectRewrite(pc uint32) int {
	switch sysNumOfEntry(pc) {
	case sys.NIPCClientConnectSend:
		return sys.NIPCClientSend
	case sys.NIPCClientConnectSendOverReceive:
		return sys.NIPCClientSendOverReceive
	default:
		return -1 // e.g. ipc_send_oneway: its handler checks the phase
	}
}

// sysNumOfEntry decodes which syscall entry a PC names (mirrors
// cpu.SyscallNum without importing cpu for one constant).
func sysNumOfEntry(pc uint32) int {
	const base, size = 0xFFF0_0000, 8
	if pc < base || pc >= base+256*size || (pc-base)%size != 0 {
		return -1
	}
	return int(pc-base) / size
}

// resetConn clears one connection half, keeping the wait queue's ring
// storage so steady-state connection reuse stays allocation-free.
func resetConn(st *obj.IPCState) {
	if st.Wait.Len() != 0 {
		panic("ipc: resetting connection with parked peer")
	}
	wait := st.Wait
	*st = obj.IPCState{}
	st.Wait = wait
}

// establish links client and server into a connection with the client
// holding the send direction: the client's client-half pairs with the
// server's server-half. The non-running side stays blocked, parked on its
// own half's wait queue with its Want flag set, so the running side can
// transfer against its rolled-forward registers.
func establish(k Kern, client, server *obj.Thread) {
	k.ChargeConnect()
	runner := k.Current()

	ch := &client.IPCClient
	sh := &server.IPCServer
	ch.Phase = obj.IPCSend
	ch.Peer = server
	sh.Phase = obj.IPCRecv
	sh.Peer = client
	sh.Accepting = false

	if runner == client {
		// The server was found waiting on its portset: repark it on
		// its own connection queue, ready to receive.
		if server.WaitQ != nil {
			server.WaitQ.Remove(server)
		}
		sh.Wait.Enqueue(server)
		sh.WantRecv = true
	} else {
		// The client was found queued on the port: repark it as a
		// ready sender and rewrite its continuation to the
		// post-connect stage (ipc_client_connect_send ->
		// ipc_client_send, §4.3).
		if client.WaitQ != nil {
			client.WaitQ.Remove(client)
		}
		ch.Wait.Enqueue(client)
		ch.WantSend = true
		if n := connectRewrite(client.Regs.PC); n >= 0 {
			k.SetPC(client, n)
		}
	}
}

// findAccepting returns a server thread blocked accepting on the port's
// set, if any.
func findAccepting(port *obj.Port) *obj.Thread {
	if port.Set == nil {
		return nil
	}
	q := &port.Set.Servers
	for i, n := 0, q.Len(); i < n; i++ {
		if s := q.At(i); s.IPCServer.Accepting {
			return s
		}
	}
	return nil
}

// connect is the client-half connection stage: resolve the port (via
// handle or reference) from portArgVA, pair with an accepting server or
// queue on the port. On success the client half holds the send direction.
func connect(k Kern, t *obj.Thread, portArgVA uint32) (sys.Errno, sys.KErr) {
	for t.IPCClient.Phase == obj.IPCIdle {
		o, e, kerr := k.ObjAt(t, portArgVA, anyObjType, false)
		if kerr != sys.KOK {
			return 0, kerr
		}
		if e != sys.EOK {
			return e, sys.KOK
		}
		port := derefPort(o)
		if port == nil || port.Dead {
			return sys.ESRCH, sys.KOK
		}
		if srv := findAccepting(port); srv != nil {
			establish(k, t, srv)
			return sys.EOK, sys.KOK
		}
		// No server ready: wake portset_wait observers (they will see
		// us queued once we block) and wait on the port.
		if port.Set != nil {
			// Threads() snapshots the queue: WakeThread dequeues as we go.
			for _, s := range port.Set.Servers.Threads() {
				if !s.IPCServer.Accepting {
					k.WakeThread(s)
				}
			}
		}
		if kerr := k.Block(&port.Connectors, true); kerr != sys.KOK {
			return 0, kerr
		}
		// Woken: either a server established the connection (phase
		// changed; loop exits) or the port died (retry observes it).
	}
	return sys.EOK, sys.KOK
}

// sendLoop transfers the caller's [R1, R2 words) to the connection peer
// of half r, rolling R1/R2 forward. It returns EOK with R2 == 0 on
// success.
func sendLoop(k Kern, t *obj.Thread, r role) (sys.Errno, sys.KErr) {
	if t.Regs.R[1]%4 != 0 {
		return sys.EINVAL, sys.KOK
	}
	st := half(t, r)
	for t.Regs.R[2] > 0 {
		switch {
		case st.PeerDied:
			resetConn(st)
			return sys.EDEAD, sys.KOK
		case st.Closed:
			resetConn(st)
			return sys.ECONN, sys.KOK
		case st.Peer == nil:
			return sys.ENOTCONN, sys.KOK
		case st.Phase != obj.IPCSend:
			return sys.ESTATE, sys.KOK
		}
		p := st.Peer
		ph := peerHalf(p, r)
		if p.State != obj.ThRunning && ph.WantRecv {
			if p.Regs.R[2] == 0 {
				// Receiver's buffer is full; its call completes.
				k.HandoffWake(p)
			} else {
				if kerr := k.CopyWords(t, p); kerr != sys.KOK {
					return 0, kerr
				}
				if p.Regs.R[2] == 0 {
					k.HandoffWake(p)
				}
				continue
			}
		}
		st.WantSend = true
		k.CountIPCMiss()
		kerr := k.Block(&st.Wait, true)
		if kerr == sys.KOK {
			st.WantSend = false
			continue
		}
		if kerr == sys.KIntr {
			st.WantSend = false
		}
		return 0, kerr
	}
	st.WantSend = false
	if st.Peer == nil && st.Phase != obj.IPCIdle {
		// The peer completed and tore down its side while we sent the
		// last words; the connection is over.
		resetConn(st)
	}
	return sys.EOK, sys.KOK
}

// recvLoop fills the caller's [R1, R2 words) from the peer of half r,
// rolling R1/R2 forward. It completes when the buffer fills or the peer
// ends its message.
func recvLoop(k Kern, t *obj.Thread, r role) (sys.Errno, sys.KErr) {
	if t.Regs.R[1]%4 != 0 {
		return sys.EINVAL, sys.KOK
	}
	st := half(t, r)
	for {
		if t.Regs.R[2] == 0 {
			break
		}
		if st.MsgEnd {
			st.MsgEnd = false
			break
		}
		switch {
		case st.PeerDied:
			resetConn(st)
			return sys.EDEAD, sys.KOK
		case st.Closed:
			resetConn(st)
			return sys.ECONN, sys.KOK
		case st.Peer == nil:
			return sys.ENOTCONN, sys.KOK
		case st.Phase != obj.IPCRecv:
			return sys.ESTATE, sys.KOK
		}
		p := st.Peer
		ph := peerHalf(p, r)
		if p.State != obj.ThRunning && ph.WantSend && p.Regs.R[2] > 0 {
			if kerr := k.CopyWords(p, t); kerr != sys.KOK {
				return 0, kerr
			}
			if p.Regs.R[2] == 0 {
				k.HandoffWake(p)
			}
			continue
		}
		st.WantRecv = true
		k.CountIPCMiss()
		kerr := k.Block(&st.Wait, true)
		if kerr == sys.KOK {
			st.WantRecv = false
			continue
		}
		if kerr == sys.KIntr {
			st.WantRecv = false
		}
		return 0, kerr
	}
	st.WantRecv = false
	if st.Peer == nil && st.Phase != obj.IPCIdle {
		// Message complete and the sender already disconnected (a
		// oneway or reply): the connection is over.
		resetConn(st)
	}
	return sys.EOK, sys.KOK
}

// flip is the "over" turnaround on half r: the sender ends its message
// and the transfer direction reverses.
func flip(k Kern, t *obj.Thread, r role) sys.Errno {
	st := half(t, r)
	if st.PeerDied {
		resetConn(st)
		return sys.EDEAD
	}
	if st.Peer == nil || st.Phase != obj.IPCSend {
		return sys.ENOTCONN
	}
	p := st.Peer
	ph := peerHalf(p, r)
	st.Phase = obj.IPCRecv
	ph.Phase = obj.IPCSend
	endMessage(k, p, ph)
	return sys.EOK
}

// endMessage marks the message toward p (on its half ph) as complete,
// waking p if it is waiting for data on that half. The wake is a handoff
// candidate: p's receive completes with this message end, and the caller
// (a sender turning the connection around or finishing a reply) is about
// to block on the reverse direction — the rendezvous pattern the direct
// switch exists for.
func endMessage(k Kern, p *obj.Thread, ph *obj.IPCState) {
	ph.MsgEnd = true
	if p.State == obj.ThBlocked && ph.WantRecv {
		k.HandoffWake(p)
	}
}

// disconnect tears down the caller's half r of the connection; the peer
// observes ECONN on its next operation on the paired half.
func disconnect(k Kern, t *obj.Thread, r role) {
	st := half(t, r)
	p := st.Peer
	if p != nil {
		ph := peerHalf(p, r)
		if ph.Peer == t {
			ph.Peer = nil
			ph.Closed = true
			if p.State == obj.ThBlocked && (ph.WantRecv || ph.WantSend) {
				k.WakeThread(p)
			}
		}
	}
	st.Peer = nil
	resetConn(st)
}

// OnThreadDeath severs both of t's connection halves when t dies; each
// peer observes EDEAD. Called by the kernel's thread teardown.
func OnThreadDeath(k Kern, t *obj.Thread) {
	for _, r := range []role{asClient, asServer} {
		st := half(t, r)
		p := st.Peer
		if p != nil {
			ph := peerHalf(p, r)
			if ph.Peer == t {
				ph.Peer = nil
				ph.PeerDied = true
				if p.State == obj.ThBlocked && (ph.WantRecv || ph.WantSend) {
					k.WakeThread(p)
				}
			}
		}
		st.Peer = nil
		st.Phase = obj.IPCIdle
	}
}
