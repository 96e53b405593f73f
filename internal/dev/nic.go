package dev

import (
	"fmt"
	"sync"

	"repro/internal/clock"
	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/mmu"
	"repro/internal/trace"
)

// NIC is a simulated multi-queue network interface with TX/RX descriptor
// rings in guest memory. Each queue owns a DMA region (rings plus frame
// buffers — ordinary pages, so the mem/mmu machinery applies unchanged),
// a doorbell register block reached through mmu.MapIO, and a virtual
// interrupt line. The device side of the wire is pluggable: consumed TX
// frames go to the OnTransmit hook, and the simulated remote end injects
// RX frames with Deliver — typically from a timer on the queue's clock,
// after a modeled wire latency (internal/netsrv provides such a peer) —
// and gets each payload back through OnDelivered once it has landed.
//
// # Descriptor protocol
//
// 4 words per descriptor, in the DMA region:
//
//	+0  buffer offset into the DMA region (RX: page-aligned if the
//	    zero-copy reply path is to engage; the device takes any)
//	+4  frame length in bytes (TX: set by driver; RX: set by device)
//	+8  tag (TX: set by driver, echoed by netsrv peers; RX: set by device)
//	+12 own: 1 = published to the device, 0 = device done
//
// Indices are free-running uint32 counts; slot = index mod ring slots, so
// ring wrap is just modular arithmetic and "ring full" is tail-head
// reaching the slot count. The driver publishes descriptors (own=1) and
// rings the tail doorbell with its new count; the device consumes in
// order and hands descriptors back with own=0.
//
// # Interrupt discipline
//
// The perf headline, chosen at construction (latched from
// core.Config.DisableNICCoalesce by internal/netsrv):
//
//   - Coalescing on (NAPI-style): delivering a frame raises the line only
//     if the queue is armed, and raising auto-masks it. The driver drains
//     the ring, then re-arms by writing its consumed count to
//     NICRegIntrArm; if deliveries slipped in meanwhile the device
//     re-raises immediately, so no frame is ever stranded — but every
//     frame delivered while masked rides a drain someone already paid the
//     interrupt for.
//   - Coalescing off: one frame per interrupt/acknowledge cycle. A
//     delivery raises the line and holds further deliveries until the
//     driver writes NICRegIRQAck — the honest pre-NAPI cost model.
//
// # Execution contexts and synchronization
//
// Register writes arrive on the guest execution path — under ParallelHost
// that is outside the kernel gate, where the global frame allocator and
// RaiseIRQ must not be touched. Timer callbacks fire under the gate. The
// device therefore splits its work:
//
//   - TX consumption runs synchronously in the doorbell write. It only
//     reads/writes the caller's own DMA pages (present and unshared by
//     construction — see consumeTX) and hands frames to OnTransmit, which
//     may arm timers but must not deliver inline.
//   - RX delivery — the part that allocates frames (COW unsharing) and
//     raises interrupts — runs only in timer context: Deliver lands there
//     already, and the doorbell/ack writes that unblock stalled frames
//     schedule a short "kick" timer instead of delivering inline.
//   - Queue bookkeeping shared between the two contexts (posted counts,
//     arm/ack flags, the pending-frame list) is guarded by a host-side
//     mutex, invisible to virtual time.
//
// The driver never reads a register the timer context writes. Instead,
// each raise first publishes the filled-descriptor count to a word in
// guest DMA (HeadShadowOff); the interrupt wake that follows gives the
// driver a happens-before edge to that snapshot, exactly as BlockDevice
// drivers order their status-register read behind the completion IRQ.
// Frames delivered during a drain pass are beyond the snapshot, so the
// driver does not look at them until the re-raise that follows its arm
// write. NICRegTxHead/RxHead/Stalls remain readable for host-side tests
// and debugging, but a ParallelHost guest must not poll them.
const (
	NICDescBytes = 16 // descriptor stride
	NICDescOff   = 0x0
	NICDescLen   = 0x4
	NICDescTag   = 0x8
	NICDescOwn   = 0xC
)

// Per-queue register block (byte offsets inside the queue's window).
const (
	NICRegTxTail  = 0x00 // W: free-running count of published TX descriptors
	NICRegRxTail  = 0x04 // W: free-running count of posted RX descriptors
	NICRegIntrArm = 0x08 // W: driver's consumed-frame count; re-arms the RX interrupt
	NICRegIRQAck  = 0x0C // W: acknowledge the outstanding interrupt
	NICRegTxHead  = 0x10 // R: TX descriptors the device has consumed (host/debug)
	NICRegRxHead  = 0x14 // R: RX descriptors the device has filled (host/debug)
	NICRegStalls  = 0x18 // R: ring-full delivery stalls, low 32 bits (host/debug)
)

// DefaultNICIRQLatency is the delay between a queue deciding to
// interrupt and the line actually rising: 0.2 µs of simulated time.
const DefaultNICIRQLatency = 40

// NICKickLatency is the doorbell-processing delay: a register write that
// unblocks stalled RX frames (RxTail repost, IRQ ack) takes effect this
// many cycles later, in timer context.
const NICKickLatency = 1

// NICQueueConfig describes one queue at construction.
type NICQueueConfig struct {
	Clock *clock.Clock // the queue's home-CPU clock (timers, raises)
	DMA   *mmu.Region  // rings, buffers, and the head-shadow word live here
	Raise func()       // raises the queue's interrupt line
	CPU   uint32       // home CPU, for trace events

	TxRingOff, RxRingOff uint32 // descriptor array offsets in DMA
	TxSlots, RxSlots     uint32 // ring sizes in descriptors

	// HeadShadowOff is the DMA offset of the word where each raise
	// publishes the filled-descriptor count — the driver's drain bound.
	// Its page must stay resident and unshared (keep it beside the rings).
	HeadShadowOff uint32
}

// NICCounters is one queue's (or, summed, the whole device's) traffic
// and interrupt accounting. Plain fields like BlockDevice's and
// cpu.ExecStats'; read them after the run, or from timer context.
type NICCounters struct {
	IRQs           uint64 // interrupts raised
	Drains         uint64 // drain passes ended by an arm write
	TxFrames       uint64
	RxFrames       uint64
	TxBytes        uint64
	RxBytes        uint64
	RingFullStalls uint64 // deliveries that had to wait for a posted descriptor
	Coalesced      uint64 // frames delivered while the interrupt was masked
	Unshares       uint64 // COW-shared buffer pages replaced before DMA overwrite
	BadDescs       uint64 // descriptors whose buffer lay outside the DMA region (frame dropped)
}

func (c *NICCounters) add(d NICCounters) {
	c.IRQs += d.IRQs
	c.Drains += d.Drains
	c.TxFrames += d.TxFrames
	c.RxFrames += d.RxFrames
	c.TxBytes += d.TxBytes
	c.RxBytes += d.RxBytes
	c.RingFullStalls += d.RingFullStalls
	c.Coalesced += d.Coalesced
	c.Unshares += d.Unshares
	c.BadDescs += d.BadDescs
}

type nicPending struct {
	tag     uint32
	payload []byte
	stalled bool // already counted as a ring-full stall
}

type nicQueue struct {
	cfg NICQueueConfig
	id  int // index in NIC.qs, for the hooks

	// TX state: touched only from the queue's register writes (the
	// driver space's execution path, one goroutine under ParallelHost).
	txHead uint32 // TX descriptors consumed
	txTail uint32 // TX doorbell (driver's published count)

	// RX and interrupt state, guarded by mu: register writes flip flags
	// and counts here; timer context does the actual delivery.
	mu             sync.Mutex
	rxPosted       uint32 // RX descriptors posted (driver's RxTail doorbell)
	rxNext         uint32 // RX descriptors filled by the device
	consumed       uint32 // driver's drain position (last IntrArm write)
	lastArm        uint32 // rxNext boundary of the previous drain (trace accounting)
	armed          bool   // coalescing: deliveries may interrupt
	irqOutstanding bool   // no-coalescing: an unacknowledged interrupt
	raisePending   bool   // raiseTimer is in flight
	raiseAt        uint64
	kickPending    bool // kickTimer is in flight
	kickAt         uint64
	pending        []nicPending // frames waiting for a descriptor (or, coalescing off, the ack)

	// The deferred raise and the deferred delivery kick, one reusable timer
	// each on the queue's clock: raisePending/kickPending admit one of each
	// in flight, so arming is a Rearm and nothing is allocated per event.
	raiseTimer, kickTimer *clock.Timer

	c NICCounters
}

// NIC is the device; see the package comment block above for protocol
// and concurrency rules.
type NIC struct {
	alloc      *mem.Allocator
	coalesce   bool
	irqLatency uint64
	qs         []*nicQueue

	// OnTransmit receives every consumed TX frame (queue, descriptor
	// tag, payload copy). Called synchronously from the TX doorbell
	// write, i.e. on the driver space's execution path — a peer wanting
	// wire latency schedules its Deliver on the queue's clock.
	OnTransmit func(queue int, tag uint32, frame []byte)

	// OnDelivered is OnTransmit's twin on the receive side: it is called
	// once for every payload handed to Deliver, as soon as the device is
	// done with it — right after the bytes landed in guest memory, or
	// after the frame was dropped on a bad descriptor. Until then the NIC
	// owns the payload (it may sit in the pending list behind a full
	// ring); from the call on the peer may reuse it. Frames restored by
	// LoadState report their restored copies. Called in timer context
	// with the queue's lock held, so it must not call back into the NIC.
	OnDelivered func(queue int, payload []byte)

	// Tracer, when non-nil, receives NICDrain instants (one per drain
	// pass that handled frames). Attach only in deterministic mode: the
	// ring is not goroutine-safe and arm writes happen on the guest
	// execution path.
	Tracer *trace.Ring
}

// NewNIC builds a device with the given queues. coalesce selects the
// interrupt discipline (pass !cfg.DisableNICCoalesce); irqLatency 0
// selects DefaultNICIRQLatency.
func NewNIC(alloc *mem.Allocator, coalesce bool, irqLatency uint64, queues []NICQueueConfig) (*NIC, error) {
	if len(queues) == 0 {
		return nil, fmt.Errorf("dev: NIC needs at least one queue")
	}
	if irqLatency == 0 {
		irqLatency = DefaultNICIRQLatency
	}
	n := &NIC{alloc: alloc, coalesce: coalesce, irqLatency: irqLatency}
	for i, qc := range queues {
		if qc.Clock == nil || qc.DMA == nil || qc.Raise == nil {
			return nil, fmt.Errorf("dev: NIC queue %d missing clock/DMA/raise", i)
		}
		if qc.TxSlots == 0 || qc.RxSlots == 0 {
			return nil, fmt.Errorf("dev: NIC queue %d has empty rings", i)
		}
		for _, r := range [][2]uint32{
			{qc.TxRingOff, qc.TxSlots}, {qc.RxRingOff, qc.RxSlots},
		} {
			if r[0]%4 != 0 || r[0]+r[1]*NICDescBytes > qc.DMA.Size {
				return nil, fmt.Errorf("dev: NIC queue %d ring [%#x,+%d descs) outside DMA region", i, r[0], r[1])
			}
		}
		if qc.HeadShadowOff%4 != 0 || qc.HeadShadowOff+4 > qc.DMA.Size {
			return nil, fmt.Errorf("dev: NIC queue %d head shadow %#x outside DMA region", i, qc.HeadShadowOff)
		}
		q := &nicQueue{cfg: qc, id: i}
		q.raiseTimer = qc.Clock.NewTimer(func(uint64) { n.raise(q) })
		q.kickTimer = qc.Clock.NewTimer(func(uint64) { n.kick(q) })
		n.qs = append(n.qs, q)
	}
	return n, nil
}

// QueueCounters returns queue q's accounting.
func (n *NIC) QueueCounters(q int) NICCounters {
	n.qs[q].mu.Lock()
	defer n.qs[q].mu.Unlock()
	return n.qs[q].c
}

// Counters returns the device-wide accounting (all queues summed).
func (n *NIC) Counters() NICCounters {
	var out NICCounters
	for i := range n.qs {
		out.add(n.QueueCounters(i))
	}
	return out
}

// PublishMetrics copies the NIC's aggregate counters into reg as
// dev.nic.* gauges — Set, not Add, so the publisher can refresh them at
// every snapshot without double counting.
func (n *NIC) PublishMetrics(reg *metrics.Registry) {
	c := n.Counters()
	reg.Gauge("dev.nic.irqs").Set(int64(c.IRQs))
	reg.Gauge("dev.nic.drains").Set(int64(c.Drains))
	reg.Gauge("dev.nic.coalesced").Set(int64(c.Coalesced))
	reg.Gauge("dev.nic.ring_full_stalls").Set(int64(c.RingFullStalls))
	reg.Gauge("dev.nic.tx_frames").Set(int64(c.TxFrames))
	reg.Gauge("dev.nic.rx_frames").Set(int64(c.RxFrames))
	reg.Gauge("dev.nic.tx_bytes").Set(int64(c.TxBytes))
	reg.Gauge("dev.nic.rx_bytes").Set(int64(c.RxBytes))
	reg.Gauge("dev.nic.unshares").Set(int64(c.Unshares))
}

// QueueIO returns the mmu.IOHandler for queue q's register window.
func (n *NIC) QueueIO(q int) mmu.IOHandler { return &nicQueueIO{n: n, q: q} }

type nicQueueIO struct {
	n *NIC
	q int
}

func (io *nicQueueIO) IORead32(off uint32) uint32 {
	q := io.n.qs[io.q]
	switch off {
	case NICRegTxTail:
		return q.txTail
	case NICRegTxHead:
		return q.txHead
	case NICRegRxTail, NICRegRxHead, NICRegStalls:
		q.mu.Lock()
		defer q.mu.Unlock()
		switch off {
		case NICRegRxTail:
			return q.rxPosted
		case NICRegRxHead:
			return q.rxNext
		default:
			return uint32(q.c.RingFullStalls)
		}
	default:
		return 0xFFFF_FFFF
	}
}

func (io *nicQueueIO) IOWrite32(off uint32, v uint32) {
	n, q := io.n, io.n.qs[io.q]
	switch off {
	case NICRegTxTail:
		q.txTail = v
		n.consumeTX(io.q)
	case NICRegRxTail:
		q.mu.Lock()
		q.rxPosted = v
		if len(q.pending) > 0 {
			n.kickLocked(q, NICKickLatency)
		}
		q.mu.Unlock()
	case NICRegIntrArm:
		// End of a drain pass: v is the driver's consumed-frame count.
		q.mu.Lock()
		q.consumed = v
		q.c.Drains++
		if frames := v - q.lastArm; frames > 0 {
			q.lastArm = v
			if n.Tracer != nil {
				n.Tracer.Add(trace.Event{
					Time: q.cfg.Clock.Now(), CPU: q.cfg.CPU,
					Kind: trace.NICDrain, A: uint32(io.q), B: frames,
				})
			}
		}
		if n.coalesce {
			q.armed = true
			if q.rxNext != q.consumed {
				// Frames were delivered while masked; the NAPI arm-check
				// closes the race by re-raising instead of stranding them.
				q.armed = false
				n.scheduleRaiseLocked(q, n.irqLatency)
			}
		}
		q.mu.Unlock()
	case NICRegIRQAck:
		q.mu.Lock()
		if !n.coalesce {
			q.irqOutstanding = false
			if len(q.pending) > 0 {
				n.kickLocked(q, NICKickLatency)
			}
		}
		q.mu.Unlock()
	}
}

// consumeTX drains published TX descriptors in order, stopping at the
// first one not yet owned by the device (that is the TX-side
// backpressure: the doorbell count can run ahead of publication, and
// consumption resumes at the next doorbell). It runs on the guest
// execution path, so it must not allocate frames: TX descriptors and
// buffers have to be the driver space's own resident private pages
// (writing own=0 to an absent or shared page would allocate — keep TX
// pages private, as internal/netsrv does). Offset and length are
// guest-written: a buffer that does not lie inside the DMA region is
// handed back unsent (BadDescs), so the host copy is never larger than
// the region.
func (n *NIC) consumeTX(qi int) {
	q := n.qs[qi]
	for q.txHead != q.txTail {
		da := q.cfg.TxRingOff + (q.txHead%q.cfg.TxSlots)*NICDescBytes
		if n.read32(q, da+NICDescOwn) != 1 {
			return
		}
		off := n.read32(q, da+NICDescOff)
		length := n.read32(q, da+NICDescLen)
		tag := n.read32(q, da+NICDescTag)
		ok := q.inDMA(off, length)
		var frame []byte
		if ok {
			frame = make([]byte, length)
			q.cfg.DMA.CopyOut(off, frame)
		}
		n.write32(q, da+NICDescOwn, 0)
		q.txHead++
		q.mu.Lock()
		if ok {
			q.c.TxFrames++
			q.c.TxBytes += uint64(length)
		} else {
			q.c.BadDescs++
		}
		q.mu.Unlock()
		if ok && n.OnTransmit != nil {
			n.OnTransmit(qi, tag, frame)
		}
	}
}

// Deliver injects an RX frame for queue q tagged tag — the simulated
// remote end's half of the wire. Call it in timer context on the
// queue's clock (or from host code while the kernel is stopped). The
// payload is not copied here: it is written into guest memory when a
// descriptor is available, which may be much later on a full ring, and
// the NIC owns it until OnDelivered reports it back.
func (n *NIC) Deliver(q int, tag uint32, payload []byte) {
	qq := n.qs[q]
	qq.mu.Lock()
	qq.pending = append(qq.pending, nicPending{tag: tag, payload: payload})
	n.deliverLocked(qq)
	qq.mu.Unlock()
}

// kickLocked schedules a delivery pass in timer context, delay cycles from
// now. Register writes that unblock pending frames call this instead of
// delivering inline — delivery allocates frames and raises interrupts,
// which the guest execution path must not do.
func (n *NIC) kickLocked(q *nicQueue, delay uint64) {
	if q.kickPending {
		return
	}
	q.kickPending = true
	q.kickAt = q.cfg.Clock.Now() + delay
	q.cfg.Clock.Rearm(q.kickTimer, q.kickAt)
}

// kick is kickTimer's callback: the deferred delivery pass.
func (n *NIC) kick(q *nicQueue) {
	q.mu.Lock()
	q.kickPending = false
	n.deliverLocked(q)
	q.mu.Unlock()
}

// deliverLocked moves pending frames into posted RX descriptors. The
// caller holds q.mu and runs in timer context (or host setup code).
func (n *NIC) deliverLocked(q *nicQueue) {
	for len(q.pending) > 0 {
		if !n.coalesce && q.irqOutstanding {
			return // one frame per interrupt/ack cycle
		}
		if q.rxNext == q.rxPosted {
			// Full ring (or no buffers posted yet): the frame waits, and
			// the RxTail doorbell resumes delivery.
			if !q.pending[0].stalled {
				q.pending[0].stalled = true
				q.c.RingFullStalls++
			}
			return
		}
		da := q.cfg.RxRingOff + (q.rxNext%q.cfg.RxSlots)*NICDescBytes
		if n.read32(q, da+NICDescOwn) != 1 {
			// Posted count ran ahead of descriptor publication; same
			// backpressure as ring-full.
			if !q.pending[0].stalled {
				q.pending[0].stalled = true
				q.c.RingFullStalls++
			}
			return
		}
		// Pop by copying down, so the list keeps its backing array and a
		// steady stream of frames never reallocates it.
		p := q.pending[0]
		last := copy(q.pending, q.pending[1:])
		q.pending[last] = nicPending{}
		q.pending = q.pending[:last]
		landed := p.payload
		if bufOff := n.read32(q, da+NICDescOff); q.inDMA(bufOff, uint32(len(landed))) {
			n.dmaWrite(q, bufOff, landed)
			q.c.RxFrames++
			q.c.RxBytes += uint64(len(landed))
		} else {
			// Guest-written offset outside the DMA region: the descriptor
			// completes empty and the frame is dropped.
			landed = nil
			q.c.BadDescs++
		}
		n.write32(q, da+NICDescLen, uint32(len(landed)))
		n.write32(q, da+NICDescTag, p.tag)
		n.write32(q, da+NICDescOwn, 0)
		q.rxNext++
		if n.OnDelivered != nil {
			n.OnDelivered(q.id, p.payload)
		}
		if n.coalesce {
			if q.armed {
				q.armed = false
				n.scheduleRaiseLocked(q, n.irqLatency)
			} else {
				q.c.Coalesced++
			}
		} else {
			q.irqOutstanding = true
			n.scheduleRaiseLocked(q, n.irqLatency)
		}
	}
}

// scheduleRaiseLocked commits to raising the queue's line delay cycles
// from now (the IRQ latency; LoadState passes what was left of it). At
// most one raise is in flight per queue; the raise
// publishes the head shadow before touching the interrupt controller,
// so the driver's post-wake read of the shadow is ordered behind every
// delivery the raise announces.
func (n *NIC) scheduleRaiseLocked(q *nicQueue, delay uint64) {
	if q.raisePending {
		return
	}
	q.raisePending = true
	q.raiseAt = q.cfg.Clock.Now() + delay
	q.cfg.Clock.Rearm(q.raiseTimer, q.raiseAt)
}

// raise is raiseTimer's callback: the deferred interrupt.
func (n *NIC) raise(q *nicQueue) {
	q.mu.Lock()
	q.raisePending = false
	q.c.IRQs++
	n.write32(q, q.cfg.HeadShadowOff, q.rxNext)
	q.mu.Unlock()
	q.cfg.Raise()
}

// cowFrame returns the frame backing the DMA page at po, ready to write
// (see mmu.Region.DMAFrame), and counts the shares it breaks.
func (n *NIC) cowFrame(q *nicQueue, po uint32, wholePage bool) *mem.Frame {
	f, unshared, err := q.cfg.DMA.DMAFrame(po, n.alloc, wholePage)
	if err != nil {
		panic(fmt.Sprintf("dev: NIC DMA out of memory at +%#x: %v", po, err))
	}
	if unshared {
		q.c.Unshares++
	}
	return f
}

// inDMA reports whether [off, off+length) lies inside the queue's DMA
// region. Both come from guest-written descriptors, hence the 64-bit sum.
func (q *nicQueue) inDMA(off, length uint32) bool {
	return uint64(off)+uint64(length) <= uint64(q.cfg.DMA.Size)
}

func (n *NIC) dmaWrite(q *nicQueue, off uint32, data []byte) {
	for i := 0; i < len(data); {
		po := mem.PageTrunc(off + uint32(i))
		inPage := int(off) + i - int(po)
		f := n.cowFrame(q, po, inPage == 0 && len(data)-i >= mem.PageSize)
		m := copy(n.alloc.Writable(f)[inPage:], data[i:])
		f.Bump()
		i += m
	}
}

func (n *NIC) read32(q *nicQueue, off uint32) uint32 {
	f := q.cfg.DMA.FrameAt(mem.PageTrunc(off))
	if f == nil {
		return 0
	}
	b := f.Data[off&mem.PageMask:]
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

func (n *NIC) write32(q *nicQueue, off uint32, v uint32) {
	f := n.cowFrame(q, mem.PageTrunc(off), false)
	b := n.alloc.Writable(f)[off&mem.PageMask:]
	b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
	f.Bump()
}

// NICPendingFrame is one queued-but-undelivered RX frame in a state
// snapshot.
type NICPendingFrame struct {
	Tag     uint32
	Payload []byte
	Stalled bool
}

// NICQueueState is one queue's checkpointable device state. Ring and
// buffer *memory* is not here — it lives in the DMA region, which the
// checkpoint layer captures with the driver space like any other guest
// memory; this is the state the registers and pending queue hold.
type NICQueueState struct {
	TxHead, TxTail    uint32
	RxPosted, RxNext  uint32
	Consumed, LastArm uint32
	Armed             bool
	IRQOutstanding    bool
	RaiseDue          uint64 // 0 = no deferred raise; else cycles until it fires
	KickDue           uint64 // 0 = no deferred delivery kick; else cycles until it fires
	Pending           []NICPendingFrame
	Counters          NICCounters
}

// NICState is the whole device's checkpointable state.
type NICState struct {
	Coalesce   bool
	IRQLatency uint64
	Queues     []NICQueueState
}

func remaining(at, now uint64) uint64 {
	if at > now {
		return at - now
	}
	return 1
}

// SaveState snapshots device state for a checkpoint: indices, interrupt
// state, queued frames, counters, and the remaining delays of any
// deferred raise or kick. Pair it with a checkpoint of the driver space
// (which carries the rings and buffers) for a full in-flight round trip.
// Call it while the kernel is stopped.
func (n *NIC) SaveState() *NICState {
	st := &NICState{Coalesce: n.coalesce, IRQLatency: n.irqLatency}
	for _, q := range n.qs {
		q.mu.Lock()
		qs := NICQueueState{
			TxHead: q.txHead, TxTail: q.txTail,
			RxPosted: q.rxPosted, RxNext: q.rxNext,
			Consumed: q.consumed, LastArm: q.lastArm,
			Armed: q.armed, IRQOutstanding: q.irqOutstanding,
			Counters: q.c,
		}
		now := q.cfg.Clock.Now()
		if q.raisePending {
			qs.RaiseDue = remaining(q.raiseAt, now)
		}
		if q.kickPending {
			qs.KickDue = remaining(q.kickAt, now)
		}
		for _, p := range q.pending {
			qs.Pending = append(qs.Pending, NICPendingFrame{
				Tag: p.tag, Payload: append([]byte(nil), p.payload...), Stalled: p.stalled,
			})
		}
		q.mu.Unlock()
		st.Queues = append(st.Queues, qs)
	}
	return st
}

// LoadState restores a SaveState snapshot onto a freshly constructed
// device with the same queue shape (typically attached to a restored
// driver space's DMA region on a new kernel). Deferred raises and kicks
// are re-armed with their remaining delays. Call it while the kernel is
// stopped.
func (n *NIC) LoadState(st *NICState) error {
	if len(st.Queues) != len(n.qs) {
		return fmt.Errorf("dev: NIC state has %d queues, device has %d", len(st.Queues), len(n.qs))
	}
	if st.Coalesce != n.coalesce {
		return fmt.Errorf("dev: NIC state coalesce=%v, device built with %v", st.Coalesce, n.coalesce)
	}
	for i, qs := range st.Queues {
		q := n.qs[i]
		q.mu.Lock()
		q.txHead, q.txTail = qs.TxHead, qs.TxTail
		q.rxPosted, q.rxNext = qs.RxPosted, qs.RxNext
		q.consumed, q.lastArm = qs.Consumed, qs.LastArm
		q.armed, q.irqOutstanding = qs.Armed, qs.IRQOutstanding
		q.c = qs.Counters
		q.pending = nil
		for _, p := range qs.Pending {
			q.pending = append(q.pending, nicPending{
				tag: p.Tag, payload: append([]byte(nil), p.Payload...), stalled: p.Stalled,
			})
		}
		if qs.RaiseDue > 0 {
			n.scheduleRaiseLocked(q, qs.RaiseDue)
		}
		if qs.KickDue > 0 {
			n.kickLocked(q, qs.KickDue)
		}
		q.mu.Unlock()
	}
	return nil
}
