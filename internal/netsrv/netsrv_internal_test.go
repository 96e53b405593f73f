package netsrv

import (
	"bytes"
	"encoding/binary"
	"testing"

	"repro/internal/core"
	"repro/internal/dev"
	"repro/internal/mem"
)

// TestDeliveredReturnsZeroedBody walks one body through the remote end's
// two hooks by hand: OnTransmit builds it stamped and parks it on the
// wire list, OnDelivered wipes it and frees it at full capacity, and the
// next request — whatever its size — is built in the same storage.
func TestDeliveredReturnsZeroedBody(t *testing.T) {
	k := core.New(core.Config{Model: core.ModelInterrupt})
	defer k.Shutdown()
	sv, err := Attach(k, Config{Workers: 1, BufPages: 3})
	if err != nil {
		t.Fatal(err)
	}
	q := sv.Queues[0]
	request := func(words uint32) []byte {
		req := make([]byte, 12)
		binary.LittleEndian.PutUint32(req[0:], 0x55) // conn
		binary.LittleEndian.PutUint32(req[4:], 0x66) // seq
		binary.LittleEndian.PutUint32(req[8:], words)
		sv.NIC.OnTransmit(0, 0, req)
		if len(q.wire) != 1 || len(q.free) != 0 {
			t.Fatalf("after a request: %d bodies on the wire, %d free", len(q.wire), len(q.free))
		}
		return q.wire[0].body[:q.wire[0].n]
	}
	first := request(2*mem.PageSize/4 + 1) // stamps on all three pages
	if got := binary.LittleEndian.Uint32(first[2*mem.PageSize:]); got != ResponseStamp(0x55, 0x66, 2) {
		t.Fatalf("third page stamp %#x", got)
	}
	sv.NIC.OnDelivered(0, first)
	if len(q.wire) != 0 || len(q.free) != 1 {
		t.Fatalf("after delivery: %d bodies on the wire, %d free", len(q.wire), len(q.free))
	}
	if b := q.free[0].body; len(b) != 3*mem.PageSize || !bytes.Equal(b, make([]byte, len(b))) {
		t.Fatalf("freed body is %d bytes and not all zero", len(b))
	}
	if second := request(1); len(second) != 4 || &second[0] != &first[0] {
		t.Fatal("the next request did not reuse the freed body")
	}
}

// TestInterruptPathAllocs drives one queue's steady-state cycle by hand —
// the worker's TX doorbell, the remote end's reply, the wire timer's
// delivery, the raise timer's interrupt, the driver's re-arm and the
// buffer repost — and pins what it allocates on the host: the copy of the
// TX frame that OnTransmit's contract hands the hook to keep, and nothing
// else. No timer, closure, reply record or body is made per event.
func TestInterruptPathAllocs(t *testing.T) {
	k := core.New(core.Config{Model: core.ModelInterrupt})
	defer k.Shutdown()
	sv, err := Attach(k, Config{Workers: 1, BufPages: 1})
	if err != nil {
		t.Fatal(err)
	}
	q, io, clk := sv.Queues[0], sv.NIC.QueueIO(0), k.CPUClock(0)
	slots := uint32(sv.Cfg.RingSlots)
	le := binary.LittleEndian
	req := make([]byte, 12)
	le.PutUint32(req[8:], 256) // a 1 KiB reply
	txDesc, rxDesc := make([]byte, dev.NICDescBytes), make([]byte, dev.NICDescBytes)
	le.PutUint32(txDesc[dev.NICDescOff:], dmaTxBuf)
	le.PutUint32(txDesc[dev.NICDescLen:], uint32(len(req)))
	le.PutUint32(txDesc[dev.NICDescOwn:], 1)
	le.PutUint32(rxDesc[dev.NICDescOff:], sv.bufOff(0))
	le.PutUint32(rxDesc[dev.NICDescOwn:], 1)
	write := func(off uint32, b []byte) {
		if err := k.WriteMem(q.Space, nsDMA+off, b); err != nil {
			t.Fatal(err)
		}
	}
	done := uint32(0) // requests completed so far
	cycle := func() {
		le.PutUint32(req[4:], done) // seq
		write(dmaTxBuf, req)
		write(dmaTxRing+done%slots*dev.NICDescBytes, txDesc)
		io.IOWrite32(dev.NICRegIntrArm, done) // the driver drained everything so far
		io.IOWrite32(dev.NICRegTxTail, done+1)
		clk.Advance(sv.Cfg.WireCycles)        // the reply lands and commits to a raise
		clk.Advance(dev.DefaultNICIRQLatency) // the line rises
		done++
		write(dmaRxRing+done%slots*dev.NICDescBytes, rxDesc)
		io.IOWrite32(dev.NICRegRxTail, done+1)
	}
	for i := 0; i < 2*int(slots); i++ {
		cycle() // fault the rings in, fill the pool, wrap both rings once
	}
	const runs = 100
	allocs := testing.AllocsPerRun(runs, cycle)
	if c := sv.Counters(); c.IRQs != uint64(done) || c.RxFrames != uint64(done) || c.TxFrames != uint64(done) || c.RingFullStalls != 0 {
		t.Fatalf("after %d cycles the NIC counts %+v: the cycle is not the steady state", done, c)
	}
	if len(q.free) != 1 || len(q.wire) != 0 {
		t.Fatalf("%d replies free and %d on the wire, want the one record back on the free list", len(q.free), len(q.wire))
	}
	if allocs != 1 {
		t.Fatalf("a doorbell-to-interrupt cycle makes %v host allocations, want 1 (the TX frame copy)", allocs)
	}
}
