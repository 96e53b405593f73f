// Package netsrv is the user-mode network server over the simulated NIC
// (internal/dev): the Fluke answer to "where does the network stack
// live". Each NIC queue gets a driver space holding a NAPI-style drain
// loop and a crew of worker threads; clients reach the workers through
// ordinary IPC references, so the whole stack — interrupt, drain,
// protocol worker, reply — runs as unprivileged user code over the
// kernel's atomic API, with the kernel contributing only IPC, irq_wait,
// and mutex/cond.
//
// # Request protocol
//
// A client RPC is a 3-word request [conn, seq, respWords] answered by a
// respWords-word body. The worker copies the request into a TX frame
// (its "outbound packet"), rings the TX doorbell, and sleeps on a cond
// until the driver hands it the matching RX frame (the "response from
// the wire"); it then replies to the client STRAIGHT OUT OF THE DMA
// WINDOW. Responses are delivered into page-aligned NIC buffers, so for
// multi-page bodies the reply rides the kernel's zero-copy path: the
// buffer's frames are COW-shared into the client, and the NIC's DMA
// engine breaks the share (dev.NIC cowFrame) only if the buffer is
// overwritten before the client is done — frames flow NIC ring → server
// → client without a payload copy.
//
// The simulated remote end (Responder) lives host-side: consumed TX
// frames come out of NIC.OnTransmit, and after a modeled wire latency
// the response frame is injected with NIC.Deliver on the queue's
// home-CPU clock; NIC.OnDelivered hands the body back once it is in
// guest memory, so a queue cycles through a few bodies instead of
// allocating one per reply. Pinning each queue — driver space, NIC
// timers, wire timers — to one CPU makes device DMA and guest execution
// naturally serial (they share the CPU's goroutine under ParallelHost),
// which is the same one-RX-ring-per-CPU shape real NAPI drivers want
// for cache locality; here it is also the memory-model discipline.
package netsrv

import (
	"encoding/binary"
	"fmt"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/dev"
	"repro/internal/mem"
	"repro/internal/obj"
	"repro/internal/prog"
	"repro/internal/sys"
)

// Driver-space guest layout. The DMA window is organized so no page is
// ever touched by both execution contexts: page 0 is the TX ring
// (guest-written, device-read in the doorbell's synchronous consume),
// page 1 is the RX ring plus the head-shadow word (device-written from
// timer context, guest-read under the IRQ-wake ordering), page 2 holds
// the small TX frame staging buffers, and the page-aligned RX buffers
// follow — the zero-copy payload pages.
const (
	nsDriverCode = 0x0001_0000
	nsWorkerCode = 0x0002_0000 // + w*0x1000
	nsData       = 0x0004_0000
	nsMMIO       = 0x00D0_0000
	nsDMA        = 0x0100_0000

	// Scratch-page words (nsData offsets are VAs).
	nsTxTailW   = nsData + 0x10 // worker-side TX doorbell count
	nsRxPostedW = nsData + 0x14 // worker-side RX posted count
	nsConsumedW = nsData + 0x18 // driver's drained-frame count
	nsSlotBase  = nsData + 0x400
	nsSlotSize  = 64 // +0 state, +4 rxOff, +8 rxLen, +12 scratch
	nsReqBase   = nsData + 0x800
	nsReqSize   = 32

	// DMA-region offsets.
	dmaTxRing = 0x0000
	dmaRxRing = 0x1000
	dmaShadow = 0x1FF0 // head-shadow word, beside the RX ring
	dmaTxBuf  = 0x2000 // + w*16: 3-word request frames
	dmaRxBuf  = 0x3000 // + w*BufPages*PageSize: response buffers

	// Fixed kernel-object handle VAs (above BindFresh's dynamic slots).
	vaTxMutex = core.KObjBase + 0x3000
	vaRxMutex = core.KObjBase + 0x3040
	vaWMutex  = core.KObjBase + 0x4000 // + w*0x40; the cond sits at +0x20
	vaWCond   = 0x20
)

// MaxQueues is bounded by the interrupt lines left above the block
// device's; MaxWorkers by the TX buffer page and the scratch layout.
const (
	MaxQueues  = 8
	MaxWorkers = 32
	baseIRQ    = 8 // queue q raises line baseIRQ+q
)

// Config sizes the server.
type Config struct {
	Queues    int // NIC queues = driver spaces (default 1, max 8)
	Workers   int // worker threads per queue (default 4, max 32)
	BufPages  int // pages per RX buffer = max response size (default 16 = 64 KiB)
	RingSlots int // TX/RX descriptors per ring (default max(8, 2*Workers), power of two)

	// WireCycles is the modeled one-way wire+remote latency between a
	// TX frame leaving the doorbell and the response arriving;
	// 0 selects 4000 cycles (20 µs at the 200 MHz virtual clock).
	WireCycles uint64
	// IRQLatency is the NIC's raise delay; 0 selects the device default.
	IRQLatency uint64

	DriverPriority int // 0 selects 30 (the block-driver convention)
	WorkerPriority int // 0 selects 25
}

func (c Config) fill() (Config, error) {
	if c.Queues == 0 {
		c.Queues = 1
	}
	if c.Workers == 0 {
		c.Workers = 4
	}
	if c.BufPages == 0 {
		c.BufPages = 16
	}
	if c.RingSlots == 0 {
		c.RingSlots = 2 * c.Workers
		if c.RingSlots < 8 {
			c.RingSlots = 8
		}
	}
	if c.WireCycles == 0 {
		c.WireCycles = 4000
	}
	if c.DriverPriority == 0 {
		c.DriverPriority = 30
	}
	if c.WorkerPriority == 0 {
		c.WorkerPriority = 25
	}
	if c.Queues < 0 || c.Queues > MaxQueues {
		return c, fmt.Errorf("netsrv: %d queues (max %d)", c.Queues, MaxQueues)
	}
	if c.Workers < 0 || c.Workers > MaxWorkers {
		return c, fmt.Errorf("netsrv: %d workers (max %d)", c.Workers, MaxWorkers)
	}
	if c.RingSlots&(c.RingSlots-1) != 0 {
		return c, fmt.Errorf("netsrv: ring slots %d not a power of two", c.RingSlots)
	}
	if uint32(c.RingSlots)*dev.NICDescBytes > mem.PageSize {
		return c, fmt.Errorf("netsrv: %d ring slots overflow the ring page", c.RingSlots)
	}
	if c.RingSlots < c.Workers {
		return c, fmt.Errorf("netsrv: %d ring slots < %d workers", c.RingSlots, c.Workers)
	}
	return c, nil
}

// Queue is one NIC queue's driver space and threads.
type Queue struct {
	Space   *obj.Space
	Driver  *obj.Thread
	Workers []*obj.Thread
	Ports   []*obj.Port // one per worker; clients round-robin
	IRQLine int
	Home    int // the CPU everything about this queue is pinned to

	// The remote end's replies. free holds idle ones, bodies all zero;
	// wire holds those stamped and travelling (timer armed, or handed to
	// NIC.Deliver) until NIC.OnDelivered reports them back. Both are touched
	// only on the home CPU's goroutine (TX doorbell and timer context), and
	// together never outnumber the requests in flight — one per worker.
	free, wire []*wireFrame
}

// wireFrame is one reply of the simulated remote end, reused from request
// to request: the wire-latency timer (its callback delivers this frame),
// the descriptor tag to echo, and the body.
type wireFrame struct {
	timer *clock.Timer
	tag   uint32
	body  []byte // BufPages long; the reply is body[:n]
	n     uint32
}

// Service is the attached NIC + user-mode network server.
type Service struct {
	Cfg    Config
	NIC    *dev.NIC
	Queues []*Queue
}

// Attach builds the NIC and its server on k: cfg.Queues driver spaces
// (queue q pinned to CPU q mod NumCPUs), each with a drain-loop driver
// thread, cfg.Workers protocol workers, and a host-side Responder wired
// to NIC.OnTransmit. Interrupt coalescing follows
// k.Config().DisableNICCoalesce.
func Attach(k *core.Kernel, cfg Config) (*Service, error) {
	cfg, err := cfg.fill()
	if err != nil {
		return nil, err
	}
	sv := &Service{Cfg: cfg}

	dmaBytes := uint32(dmaRxBuf + cfg.Workers*cfg.BufPages*int(mem.PageSize))
	var qcfgs []dev.NICQueueConfig
	var qs []*Queue
	for qi := 0; qi < cfg.Queues; qi++ {
		home := qi % k.NumCPUs()
		s := k.NewSpace()
		k.SetSpaceHome(s, home)

		dmaReg, err := dev.MapDMA(k, s, nsDMA, dmaBytes)
		if err != nil {
			return nil, err
		}
		if _, err := dev.MapScratch(k, s, nsData); err != nil {
			return nil, err
		}
		raise, err := dev.IRQRaiser(k, baseIRQ+qi)
		if err != nil {
			return nil, err
		}
		qcfgs = append(qcfgs, dev.NICQueueConfig{
			Clock: k.CPUClock(home), DMA: dmaReg.R, Raise: raise, CPU: uint32(home),
			TxRingOff: dmaTxRing, RxRingOff: dmaRxRing,
			TxSlots: uint32(cfg.RingSlots), RxSlots: uint32(cfg.RingSlots),
			HeadShadowOff: dmaShadow,
		})
		qs = append(qs, &Queue{Space: s, IRQLine: baseIRQ + qi, Home: home})
	}

	nic, err := dev.NewNIC(k.Alloc, !k.Config().DisableNICCoalesce, cfg.IRQLatency, qcfgs)
	if err != nil {
		return nil, err
	}
	sv.NIC = nic
	sv.Queues = qs
	nic.OnTransmit = sv.respond(k)
	nic.OnDelivered = sv.delivered
	nic.Tracer = k.Tracer

	for qi, q := range qs {
		if err := dev.MapRegisters(q.Space, nsMMIO, mem.PageSize, nic.QueueIO(qi)); err != nil {
			return nil, err
		}
		if err := sv.populateQueue(k, qi); err != nil {
			return nil, err
		}
	}
	return sv, nil
}

// populateQueue binds queue qi's kernel objects, primes the RX ring, and
// spawns its threads.
func (sv *Service) populateQueue(k *core.Kernel, qi int) error {
	cfg, q := sv.Cfg, sv.Queues[qi]
	s := q.Space

	bindMutex := func(va uint32) error {
		m, _ := obj.New(sys.ObjMutex)
		return k.Bind(s, va, m)
	}
	if err := bindMutex(vaTxMutex); err != nil {
		return err
	}
	if err := bindMutex(vaRxMutex); err != nil {
		return err
	}
	for w := 0; w < cfg.Workers; w++ {
		if err := bindMutex(vaWMutex + uint32(w)*0x40); err != nil {
			return err
		}
		c, _ := obj.New(sys.ObjCond)
		if err := k.Bind(s, vaWMutex+uint32(w)*0x40+vaWCond, c); err != nil {
			return err
		}
	}

	// Prime the RX ring: one posted buffer per worker, so the first
	// response for each in-flight request always has a descriptor.
	desc := make([]byte, dev.NICDescBytes)
	for w := 0; w < cfg.Workers; w++ {
		binary.LittleEndian.PutUint32(desc[dev.NICDescOff:], sv.bufOff(w))
		binary.LittleEndian.PutUint32(desc[dev.NICDescLen:], 0)
		binary.LittleEndian.PutUint32(desc[dev.NICDescTag:], 0)
		binary.LittleEndian.PutUint32(desc[dev.NICDescOwn:], 1)
		if err := k.WriteMem(s, nsDMA+dmaRxRing+uint32(w)*dev.NICDescBytes, desc); err != nil {
			return err
		}
	}
	var posted [4]byte
	binary.LittleEndian.PutUint32(posted[:], uint32(cfg.Workers))
	if err := k.WriteMem(s, nsRxPostedW, posted[:]); err != nil {
		return err
	}
	sv.NIC.QueueIO(qi).IOWrite32(dev.NICRegRxTail, uint32(cfg.Workers))

	// The drain-loop driver.
	db := driverProgram(uint32(q.IRQLine), uint32(cfg.RingSlots-1))
	dth, err := k.SpawnProgram(s, nsDriverCode, db.MustAssemble(), cfg.DriverPriority)
	if err != nil {
		return err
	}
	q.Driver = dth

	// The workers, each with its own port (clients round-robin across
	// them via ClientRef).
	for w := 0; w < cfg.Workers; w++ {
		port, _, psVA := dev.NewServicePort(k, s)
		q.Ports = append(q.Ports, port)
		wb := workerProgram(uint32(w), psVA, uint32(cfg.RingSlots-1))
		base := uint32(nsWorkerCode + w*0x1000)
		th, err := k.SpawnProgram(s, base, wb.MustAssemble(), cfg.WorkerPriority)
		if err != nil {
			return err
		}
		q.Workers = append(q.Workers, th)
	}
	return nil
}

// bufOff is worker w's RX buffer offset in the DMA region.
func (sv *Service) bufOff(w int) uint32 {
	return uint32(dmaRxBuf + w*sv.Cfg.BufPages*int(mem.PageSize))
}

// respond is the simulated remote end: parse the consumed TX frame,
// build the response body, and inject it back after the wire latency.
// It runs in NIC.OnTransmit — the TX doorbell's execution path on the
// queue's home CPU — so arming the timer on that queue's clock keeps
// the whole exchange on one goroutine.
func (sv *Service) respond(k *core.Kernel) func(qi int, tag uint32, frame []byte) {
	return func(qi int, tag uint32, frame []byte) {
		var conn, seq, respWords uint32
		if len(frame) >= 12 {
			conn = binary.LittleEndian.Uint32(frame[0:])
			seq = binary.LittleEndian.Uint32(frame[4:])
			respWords = binary.LittleEndian.Uint32(frame[8:])
		}
		if respWords < 1 {
			respWords = 1
		}
		if max := uint32(sv.Cfg.BufPages) * mem.PageSize / 4; respWords > max {
			respWords = max
		}
		q := sv.Queues[qi]
		clk := k.CPUClock(q.Home)
		var f *wireFrame
		if n := len(q.free); n > 0 {
			f, q.free = q.free[n-1], q.free[:n-1]
		} else {
			f = &wireFrame{body: make([]byte, sv.Cfg.BufPages*mem.PageSize)}
			f.timer = clk.NewTimer(func(uint64) { sv.NIC.Deliver(qi, f.tag, f.body[:f.n]) })
		}
		f.tag, f.n = tag, respWords*4
		for p := uint32(0); p*mem.PageSize < f.n; p++ {
			binary.LittleEndian.PutUint32(f.body[p*mem.PageSize:], ResponseStamp(conn, seq, p))
		}
		q.wire = append(q.wire, f)
		clk.Rearm(f.timer, clk.Now()+sv.Cfg.WireCycles)
	}
}

// delivered is NIC.OnDelivered: the frame has landed, so it goes back on
// the queue's free list with the stamps wiped — the only non-zero words
// respond ever writes. A payload that is not one of the queue's own (a
// test or a restored checkpoint injecting frames of its own) is left
// alone: the free list must hold nothing but all-zero bodies.
func (sv *Service) delivered(qi int, payload []byte) {
	if len(payload) == 0 {
		return // respond never sends an empty body
	}
	q := sv.Queues[qi]
	for i, f := range q.wire {
		if &f.body[0] != &payload[0] {
			continue
		}
		for p := uint32(0); p < f.n; p += mem.PageSize {
			binary.LittleEndian.PutUint32(f.body[p:], 0)
		}
		last := len(q.wire) - 1
		q.wire[i], q.wire[last] = q.wire[last], nil
		q.wire = q.wire[:last]
		q.free = append(q.free, f)
		return
	}
}

// ResponseStamp is the word the remote end writes at the top of response
// page p — what clients verify to prove the payload really crossed the
// share (netload checks the first and last page of every reply).
func ResponseStamp(conn, seq, page uint32) uint32 {
	return conn<<16 | (seq&0xFF)<<8 | (page & 0xFF)
}

// ClientRef binds a reference to one of queue q's worker ports into a
// client space and returns its handle VA. i picks the worker
// round-robin, so spreading clients over i spreads them over workers.
func (sv *Service) ClientRef(k *core.Kernel, client *obj.Space, q, i int) uint32 {
	ports := sv.Queues[q].Ports
	return dev.BindClientRef(k, client, ports[i%len(ports)])
}

// Counters returns the NIC's device-wide accounting.
func (sv *Service) Counters() dev.NICCounters { return sv.NIC.Counters() }

// driverProgram builds queue q's NAPI drain loop:
//
//	arm(consumed); ack; irq_wait
//	bound = head shadow (published by the raise, ordered by the wake)
//	while consumed != bound:
//	    read descriptor[consumed & mask] -> (rxOff, rxLen, tag)
//	    hand it to worker `tag` (slot write + cond signal)
//	    consumed++
//
// With coalescing on, one trip around the outer loop drains every frame
// the raise announced; with it off, the shadow admits exactly one frame
// per interrupt and the ack invites the next. Cross-syscall state lives
// in scratch memory (nsConsumedW) and R6 — everything else is reloaded,
// since syscalls clobber R1-R5.
func driverProgram(irqLine, mask uint32) *prog.Builder {
	b := prog.New(nsDriverCode)
	b.Label("wait").
		Movi(4, nsConsumedW).Ld(5, 4, 0).
		Movi(4, nsMMIO).St(4, dev.NICRegIntrArm, 5).
		Movi(5, 1).St(4, dev.NICRegIRQAck, 5).
		IRQWait(irqLine)
	b.Label("drain").
		Movi(4, nsDMA+dmaShadow).Ld(2, 4, 0).
		Movi(4, nsConsumedW).Ld(3, 4, 0).
		Beq(3, 2, "wait")
	// R5 = &rxRing[consumed & mask]
	b.Movi(5, mask).And(5, 3, 5).
		Movi(4, 4).Shl(5, 5, 4).
		Movi(4, nsDMA+dmaRxRing).Add(5, 5, 4).
		Ld(1, 5, dev.NICDescOff).
		Ld(2, 5, dev.NICDescLen).
		Ld(6, 5, dev.NICDescTag)
	// Publish (rxOff, rxLen, ready) into worker R6's slot. The state
	// write precedes the lock: the worker's check-and-wait is atomic
	// under its mutex, so it either sees ready or gets the signal.
	b.Movi(4, 6).Shl(4, 6, 4).
		Movi(5, nsSlotBase).Add(4, 4, 5).
		St(4, 4, 1).
		St(4, 8, 2).
		Movi(5, 1).St(4, 0, 5)
	// consumed++
	b.Movi(4, nsConsumedW).Ld(3, 4, 0).Addi(3, 3, 1).St(4, 0, 3)
	// R6 = worker mutex VA; signal the worker.
	b.Movi(4, 6).Shl(6, 6, 4).
		Movi(4, vaWMutex).Add(6, 6, 4).
		Mov(1, 6).Syscall(sys.NMutexLock).
		Addi(1, 6, vaWCond).Syscall(sys.NCondSignal).
		Mov(1, 6).Syscall(sys.NMutexUnlock).
		Jmp("drain")
	return b
}

// workerProgram builds worker w's request loop:
//
//	receive [conn, seq, respWords] from a client
//	stage it in the TX frame buffer; publish a TX descriptor (tag = w)
//	  and ring the doorbell, under the queue's TX mutex
//	sleep on the slot cond until the driver hands over the RX frame
//	reply respWords words straight out of the DMA window (zero-copy
//	  eligible: the buffer is page-aligned)
//	repost the buffer — after the reply, so the frames are shared into
//	  the client before the device may overwrite them — and loop
func workerProgram(w, psVA, mask uint32) *prog.Builder {
	slotVA := uint32(nsSlotBase) + w*nsSlotSize
	mVA := uint32(vaWMutex) + w*0x40
	reqBuf := uint32(nsReqBase) + w*nsReqSize
	txBufVA := uint32(nsDMA + dmaTxBuf + w*16)

	b := prog.New(nsWorkerCode + w*0x1000)
	b.Label("serve").
		IPCWaitReceive(reqBuf, 4, psVA)
	// Stage the request as the outbound frame.
	b.Movi(1, reqBuf).Movi(2, txBufVA).
		Ld(3, 1, 0).St(2, 0, 3).
		Ld(3, 1, 4).St(2, 4, 3).
		Ld(3, 1, 8).St(2, 8, 3)
	// Publish a TX descriptor and ring the doorbell.
	b.MutexLock(vaTxMutex).
		Movi(1, nsTxTailW).Ld(2, 1, 0).
		Movi(3, mask).And(3, 2, 3).
		Movi(4, 4).Shl(3, 3, 4).
		Movi(4, nsDMA+dmaTxRing).Add(3, 3, 4).
		Movi(4, dmaTxBuf+w*16).St(3, dev.NICDescOff, 4).
		Movi(4, 12).St(3, dev.NICDescLen, 4).
		Movi(4, w).St(3, dev.NICDescTag, 4).
		Movi(4, 1).St(3, dev.NICDescOwn, 4).
		Addi(2, 2, 1).St(1, 0, 2).
		Movi(1, nsMMIO).St(1, dev.NICRegTxTail, 2).
		MutexUnlock(vaTxMutex)
	// Sleep until the driver posts the response into our slot.
	b.MutexLock(mVA)
	b.Label("rspwait").
		Movi(1, slotVA).Ld(2, 1, 0).
		Movi(3, 0).
		Bne(2, 3, "got").
		CondWait(mVA+vaWCond, mVA).
		Jmp("rspwait")
	b.Label("got").
		Movi(1, slotVA).Ld(6, 1, 4). // R6 = rxOff, durable across syscalls
		Ld(3, 1, 8).
		Movi(2, 2).Shr(3, 3, 2). // bytes -> words
		St(1, 12, 3).
		Movi(2, 0).St(1, 0, 2).
		MutexUnlock(mVA)
	// Reply straight out of the DMA window.
	b.Movi(1, nsDMA).Add(1, 1, 6).
		Movi(2, slotVA).Ld(2, 2, 12).
		Syscall(sys.NIPCReply)
	// Repost the buffer for the next response.
	b.MutexLock(vaRxMutex).
		Movi(1, nsRxPostedW).Ld(2, 1, 0).
		Movi(3, mask).And(3, 2, 3).
		Movi(4, 4).Shl(3, 3, 4).
		Movi(4, nsDMA+dmaRxRing).Add(3, 3, 4).
		St(3, dev.NICDescOff, 6).
		Movi(4, 0).St(3, dev.NICDescLen, 4).
		St(3, dev.NICDescTag, 4).
		Movi(4, 1).St(3, dev.NICDescOwn, 4).
		Addi(2, 2, 1).St(1, 0, 2).
		Movi(1, nsMMIO).St(1, dev.NICRegRxTail, 2).
		MutexUnlock(vaRxMutex)
	b.Jmp("serve")
	return b
}
