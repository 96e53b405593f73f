package ipc

// Engine tests against a mock Kern with interrupt-model semantics:
// blocking returns KWouldBlock and the caller re-dispatches, exactly like
// core's dispatch loop, but with every kernel service stubbed to simple
// deterministic behaviour. (Full-stack behaviour is covered by
// internal/core's tests across all five configurations.)

import (
	"testing"

	"repro/internal/cpu"
	"repro/internal/obj"
	"repro/internal/sys"
)

// fakeKern implements Kern over a single flat word-addressed memory.
type fakeKern struct {
	cur     *obj.Thread
	objs    map[uint32]obj.Obj
	mem     map[uint32]uint32
	charges uint64
	intrs   int
}

func newFakeKern() *fakeKern {
	return &fakeKern{objs: map[uint32]obj.Obj{}, mem: map[uint32]uint32{}}
}

func (f *fakeKern) Current() *obj.Thread       { return f.cur }
func (f *fakeKern) ChargeKernel(c uint64)      { f.charges += c }
func (f *fakeKern) ChargeConnect()             { f.charges += 100 }
func (f *fakeKern) CommitProgress(*obj.Thread) {}

func (f *fakeKern) Block(q *obj.WaitQueue, interruptible bool) sys.KErr {
	t := f.cur
	if interruptible && t.Interrupted {
		t.Interrupted = false
		f.intrs++
		return sys.KIntr
	}
	t.State = obj.ThBlocked
	q.Enqueue(t)
	return sys.KWouldBlock
}

func (f *fakeKern) WakeThread(t *obj.Thread) {
	if t.WaitQ != nil {
		t.WaitQ.Remove(t)
	}
	t.State = obj.ThReady
}

// The mock has no scheduler, so a handoff wake is just a wake.
func (f *fakeKern) HandoffWake(t *obj.Thread) { f.WakeThread(t) }
func (f *fakeKern) CountIPCMiss()             {}

func (f *fakeKern) Return(t *obj.Thread, e sys.Errno) {
	t.Regs.R[0] = uint32(e)
	t.Regs.PC = t.Regs.R[cpu.LR]
}

func (f *fakeKern) SetPC(t *obj.Thread, n int) { t.Regs.PC = cpu.SyscallEntry(n) }

func (f *fakeKern) ObjAt(t *obj.Thread, va uint32, want sys.ObjType, allowDead bool) (obj.Obj, sys.Errno, sys.KErr) {
	o := f.objs[va]
	if o == nil || (o.Hdr().Dead && !allowDead) {
		return nil, sys.ESRCH, sys.KOK
	}
	if want != anyObjType && obj.TypeOf(o) != want {
		return nil, sys.ESRCH, sys.KOK
	}
	return o, sys.EOK, sys.KOK
}

func (f *fakeKern) StoreUser32(t *obj.Thread, spc *obj.Space, va uint32, v uint32) sys.KErr {
	f.mem[va] = v
	return sys.KOK
}

func (f *fakeKern) CopyWords(src, dst *obj.Thread) sys.KErr {
	for src.Regs.R[2] > 0 && dst.Regs.R[2] > 0 {
		f.mem[dst.Regs.R[1]] = f.mem[src.Regs.R[1]]
		src.Regs.R[1] += 4
		src.Regs.R[2]--
		dst.Regs.R[1] += 4
		dst.Regs.R[2]--
	}
	return sys.KOK
}

func (f *fakeKern) DeliverFault(t *obj.Thread, p *obj.Port) (bool, sys.Errno, sys.KErr) {
	reg := p.FaultRegion
	if reg == nil || len(reg.PendingFaults) == 0 {
		return false, sys.EOK, sys.KOK
	}
	if t.Regs.R[2] < FaultMsgWords {
		return true, sys.EINVAL, sys.KOK
	}
	f.mem[t.Regs.R[1]] = reg.PendingFaults[0]
	f.mem[t.Regs.R[1]+4] = FaultMsgMagic
	reg.PendingFaults = reg.PendingFaults[1:]
	t.Regs.R[1] += FaultMsgWords * 4
	t.Regs.R[2] -= FaultMsgWords
	return true, sys.EOK, sys.KOK
}

var _ Kern = (*fakeKern)(nil)

// rig builds a port+portset+ref namespace and two threads.
func rig(f *fakeKern) (client, server *obj.Thread, port *obj.Port, ps *obj.Portset) {
	port = &obj.Port{Header: obj.Header{Type: sys.ObjPort}}
	ps = &obj.Portset{Header: obj.Header{Type: sys.ObjPortset}}
	ps.AddPort(port)
	ref := &obj.Ref{Header: obj.Header{Type: sys.ObjRef}, Target: port}
	f.objs[0x100] = ref
	f.objs[0x104] = ps
	client = &obj.Thread{ID: 1, State: obj.ThRunning}
	server = &obj.Thread{ID: 2, State: obj.ThRunning}
	return
}

// fillWords writes n sequential words at base.
func (f *fakeKern) fillWords(base uint32, n int) {
	for i := 0; i < n; i++ {
		f.mem[base+uint32(i)*4] = uint32(i + 1)
	}
}

func TestEngineConnectQueuesWithoutServer(t *testing.T) {
	f := newFakeKern()
	client, _, port, _ := rig(f)
	f.cur = client
	client.Regs.R[1] = 0x1000
	client.Regs.R[2] = 4
	client.Regs.R[3] = 0x100
	if kerr := ClientConnectSend(f, client); kerr != sys.KWouldBlock {
		t.Fatalf("kerr=%v, want KWouldBlock", kerr)
	}
	if port.Connectors.Peek() != client {
		t.Fatal("client not queued on the port")
	}
	if client.IPCClient.Phase != obj.IPCIdle {
		t.Fatal("phase changed before acceptance")
	}
}

func TestEngineServerAcceptsQueuedClient(t *testing.T) {
	f := newFakeKern()
	client, server, _, _ := rig(f)
	f.fillWords(0x1000, 4)
	// Client queued on the port (as the previous test established).
	f.cur = client
	client.Regs.R[1] = 0x1000
	client.Regs.R[2] = 4
	client.Regs.R[3] = 0x100
	client.Regs.PC = cpu.SyscallEntry(sys.NIPCClientConnectSend)
	ClientConnectSend(f, client)

	// Server accepts with a big enough buffer: the engine copies from
	// the parked client's rolled-forward registers.
	f.cur = server
	server.Regs.R[1] = 0x2000
	server.Regs.R[2] = 8
	server.Regs.R[3] = 0x104
	if kerr := WaitReceive(f, server); kerr != sys.KWouldBlock {
		// All four words fit, so the server waits for more data or
		// message end — KWouldBlock is the expected unwind.
		t.Fatalf("kerr=%v", kerr)
	}
	// The client's words landed.
	for i := uint32(0); i < 4; i++ {
		if f.mem[0x2000+i*4] != i+1 {
			t.Fatalf("word %d = %d", i, f.mem[0x2000+i*4])
		}
	}
	// The client's continuation was rewritten to the post-connect stage
	// and its transfer registers rolled forward to completion.
	if client.Regs.PC != cpu.SyscallEntry(sys.NIPCClientSend) {
		t.Fatalf("client PC %#x", client.Regs.PC)
	}
	if client.Regs.R[2] != 0 {
		t.Fatalf("client words left %d", client.Regs.R[2])
	}
	// The client was woken to complete its send.
	if client.State != obj.ThReady {
		t.Fatalf("client state %v", client.State)
	}
}

func TestEngineOnewayThroughAcceptingServer(t *testing.T) {
	f := newFakeKern()
	client, server, _, _ := rig(f)
	f.fillWords(0x1000, 2)
	// Server parks accepting.
	f.cur = server
	server.Regs.R[1] = 0x2000
	server.Regs.R[2] = 8
	server.Regs.R[3] = 0x104
	if kerr := WaitReceive(f, server); kerr != sys.KWouldBlock {
		t.Fatalf("kerr=%v", kerr)
	}
	if !server.IPCServer.Accepting {
		t.Fatal("server not accepting")
	}
	// Client oneway: connects, copies, ends, disconnects in one go.
	f.cur = client
	client.Regs.R[1] = 0x1000
	client.Regs.R[2] = 2
	client.Regs.R[3] = 0x100
	client.Regs.R[cpu.LR] = 0x5555
	if kerr := SendOneway(f, client); kerr != sys.KOK {
		t.Fatalf("kerr=%v", kerr)
	}
	if sys.Errno(client.Regs.R[0]) != sys.EOK || client.Regs.PC != 0x5555 {
		t.Fatalf("completion R0=%v PC=%#x", sys.Errno(client.Regs.R[0]), client.Regs.PC)
	}
	if client.IPCClient.Phase != obj.IPCIdle {
		t.Fatal("client half not reset")
	}
	// Server observes message end on re-dispatch.
	f.cur = server
	if kerr := WaitReceive(f, server); kerr != sys.KOK {
		t.Fatalf("server kerr=%v", kerr)
	}
	if f.mem[0x2000] != 1 || f.mem[0x2004] != 2 {
		t.Fatal("payload missing")
	}
	if server.IPCServer.Phase != obj.IPCIdle {
		t.Fatal("server half not reset after sender disconnect")
	}
}

func TestEngineReplyWrongDirection(t *testing.T) {
	f := newFakeKern()
	client, server, _, _ := rig(f)
	// Hand-establish a connection with the server still receiving.
	client.IPCClient = obj.IPCState{Phase: obj.IPCSend, Peer: server}
	server.IPCServer = obj.IPCState{Phase: obj.IPCRecv, Peer: client}
	f.cur = server
	server.Regs.R[1] = 0x2000
	server.Regs.R[2] = 1
	if kerr := Reply(f, server); kerr != sys.KOK {
		t.Fatalf("kerr=%v", kerr)
	}
	if sys.Errno(server.Regs.R[0]) != sys.ESTATE {
		t.Fatalf("errno %v, want ESTATE", sys.Errno(server.Regs.R[0]))
	}
}

func TestEngineAlertAndDeath(t *testing.T) {
	f := newFakeKern()
	client, server, _, _ := rig(f)
	client.IPCClient = obj.IPCState{Phase: obj.IPCSend, Peer: server}
	server.IPCServer = obj.IPCState{Phase: obj.IPCRecv, Peer: client}

	f.cur = client
	if kerr := ClientAlert(f, client); kerr != sys.KOK {
		t.Fatalf("kerr=%v", kerr)
	}
	if !server.Interrupted {
		t.Fatal("peer not interrupted")
	}

	OnThreadDeath(f, client)
	if !server.IPCServer.PeerDied || server.IPCServer.Peer != nil {
		t.Fatalf("server half after peer death: %+v", server.IPCServer)
	}
	// Server's next receive reports EDEAD.
	f.cur = server
	server.Regs.R[1] = 0x2000
	server.Regs.R[2] = 1
	if kerr := ServerReceive(f, server); kerr != sys.KOK {
		t.Fatalf("kerr=%v", kerr)
	}
	if sys.Errno(server.Regs.R[0]) != sys.EDEAD {
		t.Fatalf("errno %v, want EDEAD", sys.Errno(server.Regs.R[0]))
	}
}

func TestEngineInterruptedConnect(t *testing.T) {
	f := newFakeKern()
	client, _, _, _ := rig(f)
	client.Interrupted = true
	f.cur = client
	client.Regs.R[1] = 0x1000
	client.Regs.R[2] = 1
	client.Regs.R[3] = 0x100
	if kerr := ClientConnectSend(f, client); kerr != sys.KIntr {
		t.Fatalf("kerr=%v, want KIntr", kerr)
	}
}

func TestEngineDeliverFaultPath(t *testing.T) {
	f := newFakeKern()
	_, server, port, _ := rig(f)
	reg := &obj.Region{Header: obj.Header{Type: sys.ObjRegion}}
	reg.PendingFaults = []uint32{0x3000}
	port.FaultRegion = reg
	f.cur = server
	server.Regs.R[1] = 0x2000
	server.Regs.R[2] = 4
	server.Regs.R[3] = 0x104
	if kerr := WaitReceive(f, server); kerr != sys.KOK {
		t.Fatalf("kerr=%v", kerr)
	}
	if f.mem[0x2000] != 0x3000 || f.mem[0x2004] != FaultMsgMagic {
		t.Fatalf("fault message wrong: %#x %#x", f.mem[0x2000], f.mem[0x2004])
	}
	if len(reg.PendingFaults) != 0 {
		t.Fatal("fault not consumed")
	}
	if server.IPCServer.Phase != obj.IPCIdle {
		t.Fatal("fault delivery must not create a connection")
	}
}

func TestEngineBadPortRef(t *testing.T) {
	f := newFakeKern()
	client, _, _, _ := rig(f)
	f.cur = client
	client.Regs.R[3] = 0xBAD // no handle
	if kerr := ClientConnectSend(f, client); kerr != sys.KOK {
		t.Fatalf("kerr=%v", kerr)
	}
	if sys.Errno(client.Regs.R[0]) != sys.ESRCH {
		t.Fatalf("errno %v", sys.Errno(client.Regs.R[0]))
	}
}
