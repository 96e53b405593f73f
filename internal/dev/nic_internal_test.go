package dev

import (
	"fmt"
	"testing"

	"repro/internal/clock"
	"repro/internal/mem"
	"repro/internal/mmu"
)

// refDMAWrite is the device's DMA write as it stood before the
// whole-page rule: every shared page is replaced by a copy of its old
// contents, whether or not the write is about to cover all of it. The
// test oracle for TestDMAWriteWholePageMatchesCopy.
func refDMAWrite(n *NIC, q *nicQueue, off uint32, data []byte) {
	for i := 0; i < len(data); {
		po := mem.PageTrunc(off + uint32(i))
		q.cfg.DMA.MarkDirty(po)
		f := q.cfg.DMA.FrameAt(po)
		switch {
		case f == nil:
			f, _ = n.alloc.Alloc()
			q.cfg.DMA.Populate(po, f)
		case f.Shared():
			nf, _ := n.alloc.Alloc()
			copy(nf.Data, f.Data)
			nf.Bump()
			n.alloc.Free(q.cfg.DMA.Repoint(po, nf))
			q.c.Unshares++
			f = nf
		case f.Cow:
			f.Cow = false
		}
		i += copy(f.Data[off+uint32(i)-po:], data[i:])
		f.Bump()
	}
}

// Page states a DMA write can meet, dealt round-robin over the region.
const (
	pgAbsent  = iota
	pgPrivate // present, sole owner
	pgCowLast // marked copy-on-write, but the ring holds the last reference
	pgShared  // shared into a receiver, as the zero-copy reply path leaves it
	pgStates
)

const dmaTestPages = 20

type dmaWorld struct {
	n        *NIC
	q        *nicQueue
	before   [dmaTestPages]*mem.Frame // region frames before the write
	gen      [dmaTestPages]uint64     // and their store generations
	receiver [dmaTestPages]*mem.Frame // the receiver's reference to shared pages
}

// newDMAWorld builds a one-queue NIC over a region whose page p is in
// state (p+rot) mod pgStates, every present byte non-zero and distinct per
// page, with dirty tracking armed.
func newDMAWorld(t *testing.T, rot int) *dmaWorld {
	t.Helper()
	alloc := mem.NewAllocator(4 * dmaTestPages)
	dma := mmu.NewRegion(dmaTestPages*mem.PageSize, true)
	n, err := NewNIC(alloc, true, 0, []NICQueueConfig{{
		Clock: clock.New(), DMA: dma, Raise: func() {},
		TxSlots: 1, RxSlots: 1, RxRingOff: NICDescBytes, HeadShadowOff: 2 * NICDescBytes,
	}})
	if err != nil {
		t.Fatal(err)
	}
	w := &dmaWorld{n: n, q: n.qs[0]}
	for p := 0; p < dmaTestPages; p++ {
		st := (p + rot) % pgStates
		if st == pgAbsent {
			continue
		}
		f, err := alloc.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		for i := range f.Data {
			f.Data[i] = byte(0x80 | (p+i)&0x7F)
		}
		dma.Populate(uint32(p)*mem.PageSize, f)
		switch st {
		case pgCowLast:
			f.Cow = true
		case pgShared:
			alloc.Share(f)
			f.Cow = true
			w.receiver[p] = f
		}
		w.before[p], w.gen[p] = f, f.Gen
	}
	dma.StartDirtyTracking()
	return w
}

// TestDMAWriteWholePageMatchesCopy drives dmaWrite and the copying
// reference over twin regions: writes that start and end mid-page or on a
// boundary, span 1 to 17 pages, and cross absent, private, COW-last-ref
// and shared frames in every alignment. Guest-visible memory, the
// receiver's frames, reference counts, Unshares and the dirty log must
// come out identical, and every written frame's generation must advance.
func TestDMAWriteWholePageMatchesCopy(t *testing.T) {
	for rot := 0; rot < pgStates; rot++ {
		for _, startIn := range []uint32{0, 1, 2048, mem.PageSize - 1} {
			for pages := uint32(1); pages <= 17; pages++ {
				for _, endIn := range []uint32{0, 1, mem.PageSize - 1} { // 0: ends on a boundary
					off := mem.PageSize + startIn
					end := mem.PageSize*(1+pages) - (mem.PageSize-endIn)%mem.PageSize
					if end <= off {
						continue
					}
					name := fmt.Sprintf("rot=%d/off=%#x/len=%#x", rot, off, end-off)
					data := make([]byte, end-off)
					for i := range data {
						data[i] = byte(1 + i%0x7F) // never zero, never a pre-fill byte
					}
					got, want := newDMAWorld(t, rot), newDMAWorld(t, rot)
					got.n.dmaWrite(got.q, off, data)
					refDMAWrite(want.n, want.q, off, data)
					compareDMAWorlds(t, name, got, want, off, end)
				}
			}
		}
	}
}

func compareDMAWorlds(t *testing.T, name string, got, want *dmaWorld, off, end uint32) {
	t.Helper()
	if g, w := got.q.c.Unshares, want.q.c.Unshares; g != w {
		t.Fatalf("%s: Unshares=%d, reference %d", name, g, w)
	}
	if g, w := got.n.alloc.InUse(), want.n.alloc.InUse(); g != w {
		t.Fatalf("%s: %d frames in use, reference %d", name, g, w)
	}
	for p := 0; p < dmaTestPages; p++ {
		po := uint32(p) * mem.PageSize
		gf, wf := got.q.cfg.DMA.FrameAt(po), want.q.cfg.DMA.FrameAt(po)
		if (gf == nil) != (wf == nil) {
			t.Fatalf("%s: page %d present=%v, reference %v", name, p, gf != nil, wf != nil)
		}
		if g, w := got.q.cfg.DMA.IsDirty(po), want.q.cfg.DMA.IsDirty(po); g != w {
			t.Fatalf("%s: page %d dirty=%v, reference %v", name, p, g, w)
		}
		if gf == nil {
			continue
		}
		if string(gf.Data) != string(wf.Data) {
			t.Fatalf("%s: page %d contents differ from the reference", name, p)
		}
		if gf.Refs != wf.Refs || gf.Cow != wf.Cow {
			t.Fatalf("%s: page %d refs=%d cow=%v, reference refs=%d cow=%v",
				name, p, gf.Refs, gf.Cow, wf.Refs, wf.Cow)
		}
		written := po < end && po+mem.PageSize > off
		switch {
		case !written:
			if gf != got.before[p] || gf.Gen != got.gen[p] {
				t.Fatalf("%s: page %d outside the write was touched", name, p)
			}
		case gf == got.before[p] && gf.Gen <= got.gen[p],
			gf != got.before[p] && gf.Gen == 0:
			t.Fatalf("%s: page %d written without advancing its generation", name, p)
		}
		if r := got.receiver[p]; r != nil {
			if string(r.Data) != string(want.receiver[p].Data) || r.Data[0] != byte(0x80|p&0x7F) {
				t.Fatalf("%s: the receiver's frame of page %d was overwritten", name, p)
			}
			if r.Refs != want.receiver[p].Refs || (written && r.Refs != 1) {
				t.Fatalf("%s: receiver frame of page %d has refs=%d, reference %d",
					name, p, r.Refs, want.receiver[p].Refs)
			}
			if written && gf == r {
				t.Fatalf("%s: the ring still maps the receiver's frame of page %d", name, p)
			}
		}
	}
}
