package dev_test

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"

	"repro/internal/clock"
	"repro/internal/dev"
	"repro/internal/mem"
	"repro/internal/mmu"
)

// --- Bare-NIC rig: one queue, registers driven host-side, no kernel. ---

// Queue layout inside the rig's DMA region.
const (
	nicTxRing = 0x000            // 4 descriptors
	nicRxRing = 0x100            // 4 descriptors
	nicTxBuf  = 0x800            // TX frame staging
	nicRxBuf  = mem.PageSize * 2 // page-aligned RX buffers, one page each
	nicSlots  = 4
	nicShadow = 0xFF0 // head-shadow word
)

type nicRig struct {
	t     *testing.T
	clk   *clock.Clock
	alloc *mem.Allocator
	dma   *mmu.Region
	n     *dev.NIC
	io    mmu.IOHandler
	irqs  int
	tx    []rigFrame // frames OnTransmit saw
}

type rigFrame struct {
	tag     uint32
	payload []byte
}

func newNICRig(t *testing.T, coalesce bool) *nicRig {
	t.Helper()
	r := &nicRig{t: t, clk: clock.New(), alloc: mem.NewAllocator(256)}
	r.dma = mmu.NewRegion(mem.PageSize*16, true)
	n, err := dev.NewNIC(r.alloc, coalesce, 0, []dev.NICQueueConfig{{
		Clock: r.clk, DMA: r.dma, Raise: func() { r.irqs++ },
		TxRingOff: nicTxRing, TxSlots: nicSlots,
		RxRingOff: nicRxRing, RxSlots: nicSlots,
		HeadShadowOff: nicShadow,
	}})
	if err != nil {
		t.Fatal(err)
	}
	n.OnTransmit = func(q int, tag uint32, frame []byte) {
		r.tx = append(r.tx, rigFrame{tag, frame})
	}
	r.n = n
	r.io = n.QueueIO(0)
	return r
}

// w32/r32 access the DMA region host-side, allocating absent pages.
func (r *nicRig) w32(off, v uint32) {
	f := r.dma.FrameAt(mem.PageTrunc(off))
	if f == nil {
		nf, err := r.alloc.Alloc()
		if err != nil {
			r.t.Fatal(err)
		}
		r.dma.Populate(mem.PageTrunc(off), nf)
		f = nf
	}
	b := f.Data[off&mem.PageMask:]
	b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
}

func (r *nicRig) r32(off uint32) uint32 {
	f := r.dma.FrameAt(mem.PageTrunc(off))
	if f == nil {
		return 0
	}
	b := f.Data[off&mem.PageMask:]
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

func (r *nicRig) bytesAt(off uint32, n int) []byte {
	out := make([]byte, n)
	for i := 0; i < n; i++ {
		f := r.dma.FrameAt(mem.PageTrunc(off + uint32(i)))
		if f != nil {
			out[i] = f.Data[(off+uint32(i))&mem.PageMask]
		}
	}
	return out
}

func (r *nicRig) putBytes(off uint32, data []byte) {
	for i, c := range data {
		o := off + uint32(i)
		r.w32(mem.PageTrunc(o), r.r32(mem.PageTrunc(o))) // ensure page
		f := r.dma.FrameAt(mem.PageTrunc(o))
		f.Data[o&mem.PageMask] = c
	}
}

// copyDMAFrom copies src's DMA image into r's empty region page by page,
// as the checkpoint layer does for a real driver space.
func (r *nicRig) copyDMAFrom(src *nicRig) {
	for off := uint32(0); off < src.dma.Size; off += mem.PageSize {
		if f := src.dma.FrameAt(off); f != nil {
			nf, err := r.alloc.Alloc()
			if err != nil {
				r.t.Fatal(err)
			}
			copy(nf.Data, f.Data)
			r.dma.Populate(off, nf)
		}
	}
}

// publishTX writes TX descriptor slot (by free-running index) and returns
// the new doorbell count.
func (r *nicRig) publishTX(idx, bufOff, n, tag uint32) uint32 {
	da := uint32(nicTxRing) + (idx%nicSlots)*dev.NICDescBytes
	r.w32(da+dev.NICDescOff, bufOff)
	r.w32(da+dev.NICDescLen, n)
	r.w32(da+dev.NICDescTag, tag)
	r.w32(da+dev.NICDescOwn, 1)
	return idx + 1
}

// postRX publishes RX descriptor slot idx pointing at its own page buffer.
func (r *nicRig) postRX(idx uint32) uint32 {
	da := uint32(nicRxRing) + (idx%nicSlots)*dev.NICDescBytes
	r.w32(da+dev.NICDescOff, nicRxBuf+(idx%nicSlots)*mem.PageSize)
	r.w32(da+dev.NICDescLen, 0)
	r.w32(da+dev.NICDescTag, 0)
	r.w32(da+dev.NICDescOwn, 1)
	return idx + 1
}

func (r *nicRig) rxDesc(idx uint32) (off, length, tag, own uint32) {
	da := uint32(nicRxRing) + (idx%nicSlots)*dev.NICDescBytes
	return r.r32(da + dev.NICDescOff), r.r32(da + dev.NICDescLen),
		r.r32(da + dev.NICDescTag), r.r32(da + dev.NICDescOwn)
}

// fire advances far enough for a doorbell kick plus the raise latency.
func (r *nicRig) fire() { r.clk.Advance(dev.NICKickLatency + dev.DefaultNICIRQLatency) }

// kick advances just the doorbell-processing delay.
func (r *nicRig) kick() { r.clk.Advance(dev.NICKickLatency) }

// TestNICTxWraparound pushes three batches of TX frames through a
// 4-slot ring — indices wrap twice — and checks order, tags, and
// payload integrity end to end.
func TestNICTxWraparound(t *testing.T) {
	r := newNICRig(t, true)
	var idx uint32
	for batch := 0; batch < 3; batch++ {
		for i := 0; i < nicSlots; i++ {
			n := uint32(batch*nicSlots + i)
			payload := bytes.Repeat([]byte{byte(0x10 + n)}, 24+int(n))
			r.putBytes(nicTxBuf+uint32(i)*64, payload)
			idx = r.publishTX(idx, nicTxBuf+uint32(i)*64, uint32(len(payload)), 0x700+n)
		}
		r.io.IOWrite32(dev.NICRegTxTail, idx)
		if got := r.io.IORead32(dev.NICRegTxHead); got != idx {
			t.Fatalf("batch %d: TxHead=%d, want %d", batch, got, idx)
		}
	}
	if len(r.tx) != 12 {
		t.Fatalf("transmitted %d frames, want 12", len(r.tx))
	}
	for n, fr := range r.tx {
		if fr.tag != uint32(0x700+n) {
			t.Fatalf("frame %d: tag %#x, want %#x (order broken)", n, fr.tag, 0x700+n)
		}
		want := bytes.Repeat([]byte{byte(0x10 + n)}, 24+n)
		if !bytes.Equal(fr.payload, want) {
			t.Fatalf("frame %d: payload corrupt", n)
		}
	}
	c := r.n.Counters()
	if c.TxFrames != 12 {
		t.Fatalf("TxFrames=%d", c.TxFrames)
	}
}

// TestNICTxBackpressure rings the TX doorbell past the published
// descriptors: the device must stop at the first own!=1 slot and resume
// when it is published and the doorbell rung again.
func TestNICTxBackpressure(t *testing.T) {
	r := newNICRig(t, true)
	r.putBytes(nicTxBuf, []byte{1, 2, 3, 4})
	r.publishTX(0, nicTxBuf, 4, 1)
	// Slot 1 not published (own=0), but doorbell says two frames.
	r.io.IOWrite32(dev.NICRegTxTail, 2)
	if got := r.io.IORead32(dev.NICRegTxHead); got != 1 {
		t.Fatalf("TxHead=%d, want 1 (stopped at unpublished slot)", got)
	}
	if len(r.tx) != 1 {
		t.Fatalf("transmitted %d, want 1", len(r.tx))
	}
	// Publish slot 1 and re-ring.
	r.publishTX(1, nicTxBuf, 4, 2)
	r.io.IOWrite32(dev.NICRegTxTail, 2)
	if got := r.io.IORead32(dev.NICRegTxHead); got != 2 {
		t.Fatalf("TxHead=%d, want 2 after publication", got)
	}
	if len(r.tx) != 2 || r.tx[1].tag != 2 {
		t.Fatalf("second frame not consumed: %v", r.tx)
	}
}

// TestNICRxOverrun delivers more frames than posted RX descriptors:
// the overflow stalls (counted once per frame), survives in order, and
// drains when the driver reposts buffers.
func TestNICRxOverrun(t *testing.T) {
	r := newNICRig(t, true)
	r.io.IOWrite32(dev.NICRegIntrArm, 0) // driver init: arm
	var posted uint32
	for i := 0; i < 2; i++ {
		posted = r.postRX(posted)
	}
	r.io.IOWrite32(dev.NICRegRxTail, posted)
	for i := 0; i < 5; i++ {
		r.n.Deliver(0, uint32(0x40+i), bytes.Repeat([]byte{byte(i + 1)}, 16))
	}
	if got := r.io.IORead32(dev.NICRegRxHead); got != 2 {
		t.Fatalf("RxHead=%d, want 2 (ring exhausted)", got)
	}
	c := r.n.Counters()
	if c.RingFullStalls != 1 {
		t.Fatalf("RingFullStalls=%d, want 1 (head-of-line frame counted once)", c.RingFullStalls)
	}
	// Repost the ring: everything drains (after the doorbell kick),
	// order preserved, wrap included.
	for i := 0; i < 3; i++ {
		posted = r.postRX(posted)
	}
	r.io.IOWrite32(dev.NICRegRxTail, posted)
	r.kick()
	if got := r.io.IORead32(dev.NICRegRxHead); got != 5 {
		t.Fatalf("RxHead=%d, want 5 after repost", got)
	}
	// Frame 4 wrapped onto slot 0, so slots 1,2,3,0 now hold frames 1..4.
	for i := uint32(1); i < 5; i++ {
		off, length, tag, own := r.rxDesc(i)
		if own != 0 || tag != 0x40+i || length != 16 {
			t.Fatalf("desc %d: off=%#x len=%d tag=%#x own=%d", i, off, length, tag, own)
		}
		if got := r.bytesAt(off, 16); !bytes.Equal(got, bytes.Repeat([]byte{byte(i + 1)}, 16)) {
			t.Fatalf("frame %d payload corrupt: %v", i, got)
		}
	}
	// Delivering 3 more stalled frames re-counts only new head-of-line
	// stalls; total stalls stays small and deliberate.
	if c := r.n.Counters(); c.RxFrames != 5 {
		t.Fatalf("RxFrames=%d", c.RxFrames)
	}
}

// TestNICZeroLengthFrames sends and receives zero-length frames: legal
// on both rings, delivered (and interrupting) like any other frame.
func TestNICZeroLengthFrames(t *testing.T) {
	r := newNICRig(t, true)
	r.io.IOWrite32(dev.NICRegIntrArm, 0)
	r.publishTX(0, nicTxBuf, 0, 0x99)
	r.io.IOWrite32(dev.NICRegTxTail, 1)
	if len(r.tx) != 1 || len(r.tx[0].payload) != 0 || r.tx[0].tag != 0x99 {
		t.Fatalf("zero-length TX mishandled: %+v", r.tx)
	}
	r.io.IOWrite32(dev.NICRegRxTail, r.postRX(0))
	r.n.Deliver(0, 0xAA, nil)
	if got := r.io.IORead32(dev.NICRegRxHead); got != 1 {
		t.Fatalf("RxHead=%d, want 1", got)
	}
	_, length, tag, own := r.rxDesc(0)
	if own != 0 || length != 0 || tag != 0xAA {
		t.Fatalf("zero-length RX desc: len=%d tag=%#x own=%d", length, tag, own)
	}
	r.fire()
	if r.irqs != 1 {
		t.Fatalf("irqs=%d, want 1 (zero-length frames still interrupt)", r.irqs)
	}
}

// TestNICCoalescingDiscipline checks the NAPI arm/mask protocol: one
// interrupt per drain no matter how many frames arrive while masked,
// and an arm write that races a delivery re-raises instead of
// stranding the frame.
func TestNICCoalescingDiscipline(t *testing.T) {
	r := newNICRig(t, true)
	var posted uint32
	for i := 0; i < nicSlots; i++ {
		posted = r.postRX(posted)
	}
	r.io.IOWrite32(dev.NICRegRxTail, posted)
	r.io.IOWrite32(dev.NICRegIntrArm, 0) // driver init: arm, nothing consumed

	r.n.Deliver(0, 1, []byte{1})
	r.fire()
	if r.irqs != 1 {
		t.Fatalf("irqs=%d, want 1", r.irqs)
	}
	// Two more while masked: delivered, no interrupt.
	r.n.Deliver(0, 2, []byte{2})
	r.n.Deliver(0, 3, []byte{3})
	r.fire()
	if r.irqs != 1 {
		t.Fatalf("irqs=%d, want still 1 (masked)", r.irqs)
	}
	if got := r.io.IORead32(dev.NICRegRxHead); got != 3 {
		t.Fatalf("RxHead=%d, want 3 (frames ride the masked window)", got)
	}
	c := r.n.Counters()
	if c.Coalesced != 2 {
		t.Fatalf("Coalesced=%d, want 2", c.Coalesced)
	}
	// Driver drained everything: repost the ring, then arm with
	// consumed=3. Quiet, so no raise.
	for i := 0; i < 3; i++ {
		posted = r.postRX(posted)
	}
	r.io.IOWrite32(dev.NICRegRxTail, posted)
	r.io.IOWrite32(dev.NICRegIntrArm, 3)
	r.fire()
	if r.irqs != 1 {
		t.Fatalf("irqs=%d after quiet arm, want 1", r.irqs)
	}
	// Frame arrives before the driver armed: arm write must re-raise.
	r.n.Deliver(0, 4, []byte{4}) // armed -> raise
	r.fire()
	if r.irqs != 2 {
		t.Fatalf("irqs=%d, want 2", r.irqs)
	}
	r.n.Deliver(0, 5, []byte{5}) // masked again
	r.io.IOWrite32(dev.NICRegIntrArm, 4)
	r.fire()
	if r.irqs != 3 {
		t.Fatalf("irqs=%d, want 3 (arm saw undrained frame 5)", r.irqs)
	}
	if c := r.n.Counters(); c.Drains != 3 {
		t.Fatalf("Drains=%d, want 3", c.Drains)
	}
}

// TestNICNoCoalesceDiscipline checks the coalescing-off model: exactly
// one frame per interrupt/ack cycle.
func TestNICNoCoalesceDiscipline(t *testing.T) {
	r := newNICRig(t, false)
	var posted uint32
	for i := 0; i < nicSlots; i++ {
		posted = r.postRX(posted)
	}
	r.io.IOWrite32(dev.NICRegRxTail, posted)
	for i := 0; i < 3; i++ {
		r.n.Deliver(0, uint32(i), []byte{byte(i)})
	}
	r.fire()
	if r.irqs != 1 {
		t.Fatalf("irqs=%d, want 1", r.irqs)
	}
	if got := r.io.IORead32(dev.NICRegRxHead); got != 1 {
		t.Fatalf("RxHead=%d, want 1 (later frames gated on ack)", got)
	}
	// Ack releases the next frame, which interrupts in turn.
	r.io.IOWrite32(dev.NICRegIRQAck, 1)
	r.fire()
	if r.irqs != 2 || r.io.IORead32(dev.NICRegRxHead) != 2 {
		t.Fatalf("irqs=%d RxHead=%d after first ack", r.irqs, r.io.IORead32(dev.NICRegRxHead))
	}
	r.io.IOWrite32(dev.NICRegIRQAck, 1)
	r.fire()
	if r.irqs != 3 || r.io.IORead32(dev.NICRegRxHead) != 3 {
		t.Fatalf("irqs=%d RxHead=%d after second ack", r.irqs, r.io.IORead32(dev.NICRegRxHead))
	}
	if c := r.n.Counters(); c.Coalesced != 0 {
		t.Fatalf("Coalesced=%d, want 0 with coalescing off", c.Coalesced)
	}
}

// TestNICDMABreaksShares delivers into an RX buffer whose frame is
// COW-shared (as the zero-copy reply path leaves it): the device must
// replace the ring's page, not scribble on the receiver's copy.
func TestNICDMABreaksShares(t *testing.T) {
	r := newNICRig(t, true)
	r.io.IOWrite32(dev.NICRegIntrArm, 0)
	r.io.IOWrite32(dev.NICRegRxTail, r.postRX(0))
	r.n.Deliver(0, 1, bytes.Repeat([]byte{0xEE}, 64))

	// "Zero-copy reply": the receiver now aliases the buffer frame.
	shared := r.dma.FrameAt(nicRxBuf)
	if shared == nil {
		t.Fatal("no frame at RX buffer")
	}
	r.alloc.Share(shared)
	shared.Cow = true

	// Repost slots 1,2,3 and — wrapping — slot 0 again, then deliver four
	// more frames. The fourth lands in slot 0's buffer: the shared page.
	posted := uint32(1)
	for i := 0; i < 4; i++ {
		posted = r.postRX(posted)
	}
	r.io.IOWrite32(dev.NICRegRxTail, posted)
	for i := 0; i < 4; i++ {
		r.n.Deliver(0, uint32(2+i), bytes.Repeat([]byte{byte(0x11 * (i + 1))}, 64))
	}
	if got := r.io.IORead32(dev.NICRegRxHead); got != 5 {
		t.Fatalf("RxHead=%d, want 5", got)
	}
	if got := shared.Data[0]; got != 0xEE {
		t.Fatalf("receiver's aliased frame overwritten: %#x", got)
	}
	if shared.Refs != 1 {
		t.Fatalf("aliased frame refs=%d, want 1 (ring dropped its ref)", shared.Refs)
	}
	fresh := r.dma.FrameAt(nicRxBuf)
	if fresh == shared {
		t.Fatal("ring still maps the shared frame")
	}
	if fresh == nil || fresh.Data[0] != 0x44 {
		t.Fatal("replacement frame missing the new payload")
	}
	c := r.n.Counters()
	if c.Unshares == 0 {
		t.Fatal("no Unshares counted")
	}
}

// TestNICPagerBackedBuffer evicts RX buffer pages mid-stream — the
// pager-backed case, where a frame is gone between posting and DMA —
// and delivers across the absent page boundary.
func TestNICPagerBackedBuffer(t *testing.T) {
	r := newNICRig(t, true)
	r.io.IOWrite32(dev.NICRegIntrArm, 0)
	var posted uint32
	for i := 0; i < 3; i++ {
		posted = r.postRX(posted)
	}
	r.io.IOWrite32(dev.NICRegRxTail, posted)
	r.n.Deliver(0, 1, bytes.Repeat([]byte{0x5A}, 32))

	// The pager steals both the filled buffer page and the next slot's.
	for _, off := range []uint32{nicRxBuf, nicRxBuf + mem.PageSize} {
		if f := r.dma.Evict(off); f != nil {
			r.alloc.Free(f)
		}
	}
	// Delivery into the evicted slot repopulates on demand.
	r.n.Deliver(0, 2, bytes.Repeat([]byte{0x6B}, 48))
	off, length, tag, own := r.rxDesc(1)
	if own != 0 || tag != 2 || length != 48 {
		t.Fatalf("post-evict desc: len=%d tag=%d own=%d", length, tag, own)
	}
	if got := r.bytesAt(off, 48); !bytes.Equal(got, bytes.Repeat([]byte{0x6B}, 48)) {
		t.Fatalf("post-evict payload corrupt: %v", got[:8])
	}
	if r.dma.FrameAt(nicRxBuf) != nil {
		t.Fatal("evicted filled page came back by itself")
	}
}

// TestNICSaveRestore snapshots a queue mid-flight — frames pending on a
// full ring, an interrupt latched but not yet fired — restores it onto
// a fresh device over a copied DMA image, and lets it complete.
func TestNICSaveRestore(t *testing.T) {
	r := newNICRig(t, true)
	r.io.IOWrite32(dev.NICRegIntrArm, 0)
	r.io.IOWrite32(dev.NICRegRxTail, r.postRX(0))
	r.n.Deliver(0, 1, bytes.Repeat([]byte{0xA1}, 16)) // fills the ring, schedules the raise
	r.n.Deliver(0, 2, bytes.Repeat([]byte{0xB2}, 16)) // pends: ring full
	r.n.Deliver(0, 3, bytes.Repeat([]byte{0xC3}, 16)) // pends behind it
	st := r.n.SaveState()
	if len(st.Queues[0].Pending) != 2 || st.Queues[0].RaiseDue == 0 {
		t.Fatalf("unexpected snapshot: pending=%d raiseDue=%d",
			len(st.Queues[0].Pending), st.Queues[0].RaiseDue)
	}

	// New world: fresh clock, fresh device, DMA image copied over.
	r2 := newNICRig(t, true)
	r2.copyDMAFrom(r)
	if err := r2.n.LoadState(st); err != nil {
		t.Fatal(err)
	}
	// The in-flight interrupt fires in the restored world.
	r2.fire()
	if r2.irqs != 1 {
		t.Fatalf("restored irqs=%d, want 1 (deferred raise re-armed)", r2.irqs)
	}
	// Drain frame 1, repost: the two pending frames land in order.
	if got := r2.io.IORead32(dev.NICRegRxHead); got != 1 {
		t.Fatalf("restored RxHead=%d, want 1", got)
	}
	off, _, tag, _ := r2.rxDesc(0)
	if tag != 1 || !bytes.Equal(r2.bytesAt(off, 16), bytes.Repeat([]byte{0xA1}, 16)) {
		t.Fatal("restored in-ring frame corrupt")
	}
	posted := uint32(1)
	for i := 0; i < 2; i++ {
		posted = r2.postRX(posted)
	}
	r2.io.IOWrite32(dev.NICRegRxTail, posted)
	r2.kick()
	if got := r2.io.IORead32(dev.NICRegRxHead); got != 3 {
		t.Fatalf("restored RxHead=%d, want 3 (pending frames delivered)", got)
	}
	for i := uint32(1); i < 3; i++ {
		_, _, tag, _ := r2.rxDesc(i)
		if tag != i+1 {
			t.Fatalf("restored pending order broken: desc %d tag %d", i, tag)
		}
	}
	// Counters carried over and kept counting.
	if c := r2.n.Counters(); c.RxFrames != 3 || c.RingFullStalls != 1 {
		t.Fatalf("restored counters: %+v", c)
	}
	// Shape mismatches are rejected, not silently mis-restored.
	if err := r2.n.LoadState(&dev.NICState{Coalesce: false, Queues: st.Queues}); err == nil {
		t.Fatal("coalesce-mismatch LoadState succeeded")
	}
	bad := *st
	bad.Queues = append(bad.Queues, st.Queues[0])
	if err := r2.n.LoadState(&bad); err == nil {
		t.Fatal("queue-count-mismatch LoadState succeeded")
	}
}

// TestNICBadRxDescriptor posts an RX descriptor whose buffer offset is the
// DMA region's size — one byte past anything the device may touch. The
// frame must be dropped with the descriptor completed empty, not panic
// the host, and the queue must keep serving.
func TestNICBadRxDescriptor(t *testing.T) {
	r := newNICRig(t, true)
	r.io.IOWrite32(dev.NICRegIntrArm, 0)
	var returned [][]byte
	r.n.OnDelivered = func(_ int, payload []byte) { returned = append(returned, payload) }

	r.w32(nicRxRing+dev.NICDescOff, r.dma.Size)
	r.w32(nicRxRing+dev.NICDescOwn, 1)
	posted := r.postRX(1) // slot 1 is well-formed
	r.io.IOWrite32(dev.NICRegRxTail, posted)
	dropped, kept := []byte{1, 2, 3, 4}, []byte{5, 6, 7, 8}
	r.n.Deliver(0, 0x51, dropped)
	r.n.Deliver(0, 0x52, kept)

	if _, length, tag, own := r.rxDesc(0); own != 0 || length != 0 || tag != 0x51 {
		t.Fatalf("bad descriptor completed with len=%d tag=%#x own=%d, want len 0, tag 0x51, own 0", length, tag, own)
	}
	off, length, tag, own := r.rxDesc(1)
	if own != 0 || length != 4 || tag != 0x52 || !bytes.Equal(r.bytesAt(off, 4), kept) {
		t.Fatalf("frame after the bad descriptor: len=%d tag=%#x own=%d", length, tag, own)
	}
	if c := r.n.Counters(); c.BadDescs != 1 || c.RxFrames != 1 || c.RxBytes != 4 {
		t.Fatalf("counters after one dropped and one delivered frame: %+v", c)
	}
	if len(returned) != 2 || &returned[0][0] != &dropped[0] || &returned[1][0] != &kept[0] {
		t.Fatalf("OnDelivered saw %d payloads, want the dropped one and the delivered one in order", len(returned))
	}
	r.fire()
	if r.irqs != 1 || r.r32(nicShadow) != 2 {
		t.Fatalf("irqs=%d shadow=%d: the completed descriptors were not announced", r.irqs, r.r32(nicShadow))
	}
	// BadDescs rides the checkpoint with the other counters.
	r2 := newNICRig(t, true)
	if err := r2.n.LoadState(r.n.SaveState()); err != nil {
		t.Fatal(err)
	}
	if c := r2.n.Counters(); c.BadDescs != 1 {
		t.Fatalf("restored BadDescs=%d, want 1", c.BadDescs)
	}
}

// TestNICBadTxDescriptor publishes a TX descriptor with a 2 GiB length
// (and one whose offset+length wraps 32 bits): the device must hand them
// back unsent without sizing a host buffer from the guest's word, and
// transmit the well-formed frame behind them.
func TestNICBadTxDescriptor(t *testing.T) {
	r := newNICRig(t, true)
	r.putBytes(nicTxBuf, []byte{9, 8, 7, 6})
	idx := r.publishTX(0, nicTxBuf, 0x7FFF_FFF0, 1)
	idx = r.publishTX(idx, 0xFFFF_FFFC, 8, 2)
	idx = r.publishTX(idx, nicTxBuf, 4, 3)
	r.io.IOWrite32(dev.NICRegTxTail, idx)

	if got := r.io.IORead32(dev.NICRegTxHead); got != 3 {
		t.Fatalf("TxHead=%d, want 3 (bad descriptors are consumed, not stuck)", got)
	}
	for i := uint32(0); i < 3; i++ {
		if own := r.r32(nicTxRing + i*dev.NICDescBytes + dev.NICDescOwn); own != 0 {
			t.Fatalf("TX descriptor %d still owned by the device", i)
		}
	}
	if len(r.tx) != 1 || r.tx[0].tag != 3 || !bytes.Equal(r.tx[0].payload, []byte{9, 8, 7, 6}) {
		t.Fatalf("transmitted %+v, want only the well-formed frame", r.tx)
	}
	if c := r.n.Counters(); c.BadDescs != 2 || c.TxFrames != 1 || c.TxBytes != 4 {
		t.Fatalf("counters: %+v", c)
	}
}

// TestNICOnDeliveredOrder pins the payload-ownership contract: the hook
// runs once per frame, in delivery order, with the bytes already in guest
// memory and the descriptor handed back — at once when a descriptor is
// free, only after the repost for frames that waited on a full ring, and
// with the restored copies for frames a checkpoint carried over.
func TestNICOnDeliveredOrder(t *testing.T) {
	var seen []byte // first payload byte of each reported frame
	hook := func(r *nicRig) func(int, []byte) {
		return func(q int, payload []byte) {
			idx := uint32(len(seen))
			off, length, _, own := r.rxDesc(idx)
			if q != 0 || own != 0 || int(length) != len(payload) || !bytes.Equal(r.bytesAt(off, len(payload)), payload) {
				t.Errorf("frame %d reported before it landed (len=%d own=%d)", idx, length, own)
			}
			seen = append(seen, payload[0])
		}
	}
	frame := func(i int) []byte { return bytes.Repeat([]byte{byte(0xA0 + i)}, 16+i) }

	r := newNICRig(t, true)
	r.n.OnDelivered = hook(r)
	r.io.IOWrite32(dev.NICRegIntrArm, 0)
	r.io.IOWrite32(dev.NICRegRxTail, r.postRX(0))
	for i := 0; i < 5; i++ {
		r.n.Deliver(0, uint32(i), frame(i))
	}
	if !bytes.Equal(seen, []byte{0xA0}) {
		t.Fatalf("reported %x with one descriptor posted, want only the first frame", seen)
	}
	posted := r.postRX(r.postRX(1))
	r.io.IOWrite32(dev.NICRegRxTail, posted)
	if len(seen) != 1 {
		t.Fatalf("reported %x before the doorbell kick ran", seen)
	}
	r.kick()
	if !bytes.Equal(seen, []byte{0xA0, 0xA1, 0xA2}) {
		t.Fatalf("reported %x after the repost, want the two stalled frames in order", seen)
	}

	// Frames 3 and 4 cross a checkpoint in the pending list.
	r2 := newNICRig(t, true)
	r2.n.OnDelivered = hook(r2)
	r2.copyDMAFrom(r)
	if err := r2.n.LoadState(r.n.SaveState()); err != nil {
		t.Fatal(err)
	}
	r2.io.IOWrite32(dev.NICRegRxTail, r2.postRX(r2.postRX(3)))
	r2.kick()
	if !bytes.Equal(seen, []byte{0xA0, 0xA1, 0xA2, 0xA3, 0xA4}) {
		t.Fatalf("reported %x after the restore, want every frame exactly once", seen)
	}
	r.kick()
	r2.fire()
	if len(seen) != 5 {
		t.Fatalf("a frame was reported twice: %x", seen)
	}
}

// FuzzNICDescriptors lets the input play a hostile driver: it scribbles
// arbitrary words over both descriptor rings and rings every doorbell
// with arbitrary counts while the wire keeps delivering. The device must
// never panic the host, and a TX doorbell must never allocate more than
// one DMA region's worth of host memory per descriptor it consumed —
// guest-written lengths do not size host buffers.
func FuzzNICDescriptors(f *testing.F) {
	le := binary.LittleEndian
	desc := func(op byte, slot byte, off, length, tag, own uint32) []byte {
		b := []byte{op, slot}
		for _, v := range []uint32{off, length, tag, own} {
			b = le.AppendUint32(b, v)
		}
		return b
	}
	bell := func(op byte, v uint32) []byte { return le.AppendUint32([]byte{op}, v) }
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	// The two reproduced host faults: an RX buffer at the region's end,
	// and a 2 GiB TX length.
	f.Add(cat(desc(1, 0, mem.PageSize*16, 0, 0, 1), bell(3, 1), []byte{4, 4}))
	f.Add(cat(desc(0, 0, nicTxBuf, 0x7FFF_FFF0, 0, 1), bell(2, 1)))
	// Own bits that wrap the ring: every slot published and the doorbell
	// far ahead, own values other than 0 and 1, a tail that runs backwards.
	f.Add(cat(desc(0, 0, nicTxBuf, 8, 1, 1), desc(0, 1, nicTxBuf, 8, 2, 1), desc(0, 2, nicTxBuf, 8, 3, 1),
		desc(0, 3, nicTxBuf, 8, 4, 1), bell(2, 0xFFFF_FFFF), bell(2, 3)))
	f.Add(cat(desc(1, 0, nicRxBuf, 0, 0, 1), desc(1, 1, nicRxBuf, 0, 0, 0xFFFF_FFFF), desc(1, 3, 0xFFFF_F000, 0, 0, 1),
		bell(3, 0x8000_0004), []byte{4, 200, 4, 1, 4, 0}, bell(3, 2), []byte{7}, bell(5, 9), bell(6, 1), []byte{7}))

	f.Fuzz(func(t *testing.T, script []byte) {
		r := newNICRig(t, len(script)%2 == 0)
		r.n.OnTransmit = func(int, uint32, []byte) {}
		payload := make([]byte, 2*mem.PageSize+5)
		next := func(n int) []byte {
			if short := n - len(script); short > 0 {
				script = append(script, make([]byte, short)...) // a truncated op reads zeros
			}
			b := script[:n]
			script = script[n:]
			return b
		}
		for len(script) > 0 {
			switch op := next(1)[0] % 8; op {
			case 0, 1: // overwrite a TX (0) or RX (1) descriptor
				b := next(17)
				da := uint32(nicTxRing) + uint32(op)*(nicRxRing-nicTxRing) + uint32(b[0]%nicSlots)*dev.NICDescBytes
				for w := uint32(0); w < 4; w++ {
					r.w32(da+4*w, le.Uint32(b[1+4*w:]))
				}
			case 2: // TX doorbell, with the allocation bound
				v := le.Uint32(next(4))
				var m0, m1 runtime.MemStats
				head := r.io.IORead32(dev.NICRegTxHead)
				runtime.ReadMemStats(&m0)
				r.io.IOWrite32(dev.NICRegTxTail, v)
				runtime.ReadMemStats(&m1)
				consumed := uint64(r.io.IORead32(dev.NICRegTxHead) - head)
				if got, limit := m1.TotalAlloc-m0.TotalAlloc, consumed*uint64(r.dma.Size)+64<<10; got > limit {
					t.Fatalf("TX doorbell consumed %d descriptors and allocated %d bytes (limit %d)", consumed, got, limit)
				}
				if consumed > nicSlots {
					t.Fatalf("one TX doorbell consumed %d descriptors from a %d-slot ring", consumed, nicSlots)
				}
			case 3:
				r.io.IOWrite32(dev.NICRegRxTail, le.Uint32(next(4)))
			case 4: // the wire delivers a frame of up to two pages and a bit
				n := int(next(1)[0]) * len(payload) / 255
				r.n.Deliver(0, uint32(n), payload[:n])
			case 5:
				r.io.IOWrite32(dev.NICRegIntrArm, le.Uint32(next(4)))
			case 6:
				r.io.IOWrite32(dev.NICRegIRQAck, 1)
			case 7:
				r.fire()
			}
		}
		r.fire()
		if c := r.n.Counters(); c.RxBytes > c.RxFrames*uint64(len(payload)) {
			t.Fatalf("counters out of shape: %+v", c)
		}
	})
}
