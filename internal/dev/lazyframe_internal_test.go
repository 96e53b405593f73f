package dev

import (
	"bytes"
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/mem"
	"repro/internal/mmu"
)

// lazyVA is where the mmu rows map their one-page regions.
const lazyVA = 0x10_0000

// lazyOff and lazyPat are what every row writes: four bytes at a
// word-aligned offset inside the page, so word and byte writers agree.
const lazyOff = 0x124

var lazyPat = []byte{0xDE, 0xAD, 0xBE, 0xEF}

// lazyWord is lazyPat as the little-endian word a 32-bit store writes.
const lazyWord = 0xEFBEADDE

// lazySpace maps a fresh one-page demand-zero region RW at lazyVA.
func lazySpace(t *testing.T, a *mem.Allocator) (*mmu.AddrSpace, *mmu.Region) {
	t.Helper()
	as := mmu.NewAddrSpace(a)
	r := mmu.NewRegion(mem.PageSize, true)
	if err := as.Map(&mmu.Mapping{Region: r, Base: lazyVA, Size: r.Size, Perm: mmu.PermRW}); err != nil {
		t.Fatal(err)
	}
	return as, r
}

// readFault installs an unwritten demand-zero frame at lazyVA the way a
// guest load does, and returns it.
func readFault(t *testing.T, as *mmu.AddrSpace, r *mmu.Region) *mem.Frame {
	t.Helper()
	if err := as.ResolveSoft(lazyVA, cpu.Read); err != nil {
		t.Fatal(err)
	}
	return r.FrameAt(0)
}

// lazyNIC builds a one-queue NIC whose DMA page 1 holds an unwritten
// frame, returned with the NIC.
func lazyNIC(t *testing.T, a *mem.Allocator) (*NIC, *mmu.Region, *mem.Frame) {
	t.Helper()
	dma := mmu.NewRegion(2*mem.PageSize, true)
	n, err := NewNIC(a, true, 0, []NICQueueConfig{{
		Clock: clock.New(), DMA: dma, Raise: func() {},
		TxSlots: 1, RxSlots: 1, RxRingOff: NICDescBytes, HeadShadowOff: 2 * NICDescBytes,
	}})
	if err != nil {
		t.Fatal(err)
	}
	f, err := a.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	dma.Populate(mem.PageSize, f)
	return n, dma, f
}

// allocFromRecycled is TestLazyFrameWritePaths' AllocFrom rows: an
// unwritten frame is freed and handed back by AllocFrom, which must
// build it on the caller's page as it would a grown frame. With write
// set the frame is then written through Writable, which must copy the
// borrowed page first and leave the caller's bytes alone.
func allocFromRecycled(write bool) func(t *testing.T) (*mem.Allocator, *mem.Frame, func() *mem.Frame) {
	return func(t *testing.T) (*mem.Allocator, *mem.Frame, func() *mem.Frame) {
		a := mem.NewAllocator(8)
		f, _ := a.Alloc()
		return a, f, func() *mem.Frame {
			a.Free(f)
			page := make([]byte, mem.PageSize)
			copy(page[lazyOff:], lazyPat)
			g, err := a.AllocFrom(page)
			if err != nil || g != f {
				t.Fatalf("AllocFrom: %v; want the recycled frame back", err)
			}
			if &g.Data[0] != &page[0] || !g.Lent() {
				t.Fatal("a recycled unwritten frame was not built on the caller's page, as a grown one is")
			}
			if write {
				a.Writable(g)[0] = 1
				g.Bump()
				if &g.Data[0] == &page[0] || page[0] != 0 || g.Lent() {
					t.Fatal("writing the frame wrote the caller's page")
				}
			}
			return g
		}
	}
}

// TestLazyFrameWritePaths drives every host path that writes frame bytes
// against a frame that still aliases the shared zero page. Each row
// builds its world, hands back that frame and a write putting lazyPat at
// lazyOff, and the write returns the frame that holds the page afterwards
// (the same one, or a copy when the path breaks a share). The bytes must
// land, that frame's store generation must move, and a second unwritten
// frame must still read as zeros. The last case writes a fresh frame's
// Data without Writable and must fault: the zero page is read-only.
func TestLazyFrameWritePaths(t *testing.T) {
	rows := []struct {
		name  string
		setup func(t *testing.T) (a *mem.Allocator, f *mem.Frame, write func() *mem.Frame)
	}{
		{"mmu store after a read fault", func(t *testing.T) (*mem.Allocator, *mem.Frame, func() *mem.Frame) {
			a := mem.NewAllocator(8)
			as, r := lazySpace(t, a)
			f := readFault(t, as, r)
			return a, f, func() *mem.Frame {
				if _, flt := as.Load32(lazyVA + lazyOff); flt != nil {
					t.Fatalf("load: %v", flt)
				}
				if tlb := as.TLB(); tlb.Page(lazyVA, cpu.TLBWrite) != nil {
					t.Fatal("TLB refilled writable for an unwritten frame")
				}
				if flt := as.Store32(lazyVA+lazyOff, lazyWord); flt != nil {
					t.Fatalf("store: %v", flt)
				}
				if tlb := as.TLB(); tlb.Page(lazyVA, cpu.TLBWrite) == nil {
					t.Fatal("store did not refill the TLB writable")
				}
				return f
			}
		}},
		{"mmu ResolveSoft write", func(t *testing.T) (*mem.Allocator, *mem.Frame, func() *mem.Frame) {
			a := mem.NewAllocator(8)
			as, r := lazySpace(t, a)
			f, _ := a.Alloc()
			r.Populate(0, f) // as a pager grants it
			return a, f, func() *mem.Frame {
				if err := as.ResolveSoft(lazyVA, cpu.Write); err != nil {
					t.Fatal(err)
				}
				if f.Unwritten() {
					t.Fatal("ResolveSoft for a write left the frame unwritten")
				}
				if flt := as.Store32(lazyVA+lazyOff, lazyWord); flt != nil {
					t.Fatalf("store: %v", flt)
				}
				return f
			}
		}},
		{"mmu DirectWindow write", func(t *testing.T) (*mem.Allocator, *mem.Frame, func() *mem.Frame) {
			a := mem.NewAllocator(8)
			as, r := lazySpace(t, a)
			f := readFault(t, as, r)
			return a, f, func() *mem.Frame {
				w := as.DirectWindow(lazyVA+lazyOff, cpu.Write, 4)
				if len(w) != 4 {
					t.Fatalf("write window of %d bytes", len(w))
				}
				copy(w, lazyPat)
				return f
			}
		}},
		{"mmu ResolveCOW copy", func(t *testing.T) (*mem.Allocator, *mem.Frame, func() *mem.Frame) {
			a := mem.NewAllocator(8)
			src, sr := lazySpace(t, a)
			dst, dr := lazySpace(t, a)
			f := readFault(t, src, sr)
			if !mmu.ShareCOW(src, lazyVA, dst, lazyVA) {
				t.Fatal("ShareCOW declined")
			}
			return a, f, func() *mem.Frame {
				if flt := dst.Store32(lazyVA+lazyOff, lazyWord); flt == nil {
					t.Fatal("store to a shared frame did not fault")
				}
				if cl, _ := dst.Classify(lazyVA, cpu.Write); cl != mmu.FaultCOW {
					t.Fatalf("fault class %v, want cow", cl)
				}
				if copied, err := dst.ResolveCOW(lazyVA); err != nil || !copied {
					t.Fatalf("ResolveCOW: copied %v, %v", copied, err)
				}
				if flt := dst.Store32(lazyVA+lazyOff, lazyWord); flt != nil {
					t.Fatalf("store after the break: %v", flt)
				}
				if !f.Unwritten() {
					t.Fatal("breaking the share wrote the source frame")
				}
				return dr.FrameAt(0)
			}
		}},
		{"NIC dmaWrite", func(t *testing.T) (*mem.Allocator, *mem.Frame, func() *mem.Frame) {
			a := mem.NewAllocator(8)
			n, dma, f := lazyNIC(t, a)
			return a, f, func() *mem.Frame {
				n.dmaWrite(n.qs[0], mem.PageSize+lazyOff, lazyPat)
				return dma.FrameAt(mem.PageSize)
			}
		}},
		{"NIC write32", func(t *testing.T) (*mem.Allocator, *mem.Frame, func() *mem.Frame) {
			a := mem.NewAllocator(8)
			n, dma, f := lazyNIC(t, a)
			return a, f, func() *mem.Frame {
				n.write32(n.qs[0], mem.PageSize+lazyOff, lazyWord)
				return dma.FrameAt(mem.PageSize)
			}
		}},
		{"NIC cowFrame partial copy", func(t *testing.T) (*mem.Allocator, *mem.Frame, func() *mem.Frame) {
			a := mem.NewAllocator(8)
			n, dma, f := lazyNIC(t, a)
			a.Share(f) // a receiver holds the page, as a zero-copy reply leaves it
			f.Cow = true
			return a, f, func() *mem.Frame {
				n.dmaWrite(n.qs[0], mem.PageSize+lazyOff, lazyPat)
				if nf := dma.FrameAt(mem.PageSize); nf == f {
					t.Fatal("DMA into a shared page did not break the share")
				}
				return dma.FrameAt(mem.PageSize)
			}
		}},
		{"block device dmaWrite", func(t *testing.T) (*mem.Allocator, *mem.Frame, func() *mem.Frame) {
			a := mem.NewAllocator(8)
			dma := mmu.NewRegion(mem.PageSize, true)
			d := New(clock.New(), a, 8, dma, 1000, func() {})
			f, _ := a.Alloc()
			dma.Populate(0, f)
			return a, f, func() *mem.Frame {
				if err := d.dmaWrite(lazyOff, lazyPat); err != nil {
					t.Fatal(err)
				}
				return dma.FrameAt(0)
			}
		}},
		{"kernel WriteMem", func(t *testing.T) (*mem.Allocator, *mem.Frame, func() *mem.Frame) {
			k := core.New(core.Config{})
			s := k.NewSpace()
			r := mmu.NewRegion(mem.PageSize, true)
			if err := s.AS.Map(&mmu.Mapping{Region: r, Base: lazyVA, Size: r.Size, Perm: mmu.PermRW}); err != nil {
				t.Fatal(err)
			}
			f := readFault(t, s.AS, r)
			return k.Alloc, f, func() *mem.Frame {
				if err := k.WriteMem(s, lazyVA+lazyOff, lazyPat); err != nil {
					t.Fatal(err)
				}
				return f
			}
		}},
		{"AllocFrom onto a recycled zero frame", allocFromRecycled(true)},
		{"AllocFrom adopting onto a recycled zero frame", allocFromRecycled(false)},
	}
	zero := make([]byte, mem.PageSize)
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			a, f, write := row.setup(t)
			if !f.Unwritten() {
				t.Fatal("setup did not start from an unwritten frame")
			}
			other, err := a.Alloc()
			if err != nil || !other.Unwritten() {
				t.Fatalf("second frame: unwritten %v, %v", err == nil && other.Unwritten(), err)
			}
			gen := f.Gen
			got := write()
			if got != f {
				gen = 0 // a copy: its generation counts from allocation
			}
			if got.Unwritten() {
				t.Fatal("the written frame still aliases the zero page")
			}
			if !bytes.Equal(got.Data[lazyOff:lazyOff+len(lazyPat)], lazyPat) {
				t.Fatalf("bytes at %#x = % x, want % x", lazyOff, got.Data[lazyOff:lazyOff+len(lazyPat)], lazyPat)
			}
			if got.Gen == gen {
				t.Fatalf("store generation stayed at %d", gen)
			}
			if !other.Unwritten() || !bytes.Equal(other.Data, zero) {
				t.Fatal("a second unwritten frame no longer reads as zeros")
			}
		})
	}

	t.Run("write without Writable faults", func(t *testing.T) {
		switch runtime.GOOS {
		case "windows", "plan9", "js", "wasip1":
			t.Skip("the zero page is read-only on unix hosts only")
		}
		f, err := mem.NewAllocator(1).Alloc()
		if err != nil {
			t.Fatal(err)
		}
		defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
		defer func() {
			if recover() == nil {
				t.Fatal("a store into an unwritten frame's Data did not fault")
			}
		}()
		f.Data[lazyOff] = 1
	})
}
