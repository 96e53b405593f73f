package mmu

import (
	"testing"

	"repro/internal/cpu"
	"repro/internal/mem"
)

// cowEnv wires two address spaces over separate regions sharing one
// allocator, with a page already written in the source, mimicking the
// zero-copy IPC setup (sender buffer populated, receiver buffer mapped).
func cowEnv(t *testing.T) (alloc *mem.Allocator, src, dst *AddrSpace, srcReg, dstReg *Region) {
	t.Helper()
	alloc = mem.NewAllocator(64)
	src = NewAddrSpace(alloc)
	dst = NewAddrSpace(alloc)
	srcReg, _ = mapZero(t, src, 0x10000, 2*mem.PageSize, PermRW)
	dstReg, _ = mapZero(t, dst, 0x40000, 2*mem.PageSize, PermRW)
	touchStore32(t, src, 0x10000, 0xfeed)
	touchStore32(t, dst, 0x40000, 0) // receiver page present, like a reused buffer
	return
}

// resolveTo drives the fault-and-restart loop for a store, resolving soft
// and COW faults, and returns how many COW breaks copied a page.
func resolveStore(t *testing.T, as *AddrSpace, va, v uint32) (copies int) {
	t.Helper()
	for i := 0; i < 4; i++ {
		if f := as.Store32(va, v); f == nil {
			return copies
		}
		switch cl, _ := as.Classify(va, cpu.Write); cl {
		case FaultSoft:
			if err := as.ResolveSoft(va, cpu.Write); err != nil {
				t.Fatal(err)
			}
		case FaultCOW:
			copied, err := as.ResolveCOW(va)
			if err != nil {
				t.Fatal(err)
			}
			if copied {
				copies++
			}
		default:
			t.Fatalf("store %#x: unexpected fault class", va)
		}
	}
	t.Fatalf("store %#x: fault loop did not converge", va)
	return
}

// ShareCOW installs the sender's frame in the receiver's region: one frame,
// two references, reads hit on both sides, and no words were copied.
func TestShareCOWAliasesFrame(t *testing.T) {
	alloc, src, dst, srcReg, dstReg := cowEnv(t)
	inUse := alloc.InUse()
	if !ShareCOW(src, 0x10000, dst, 0x40000) {
		t.Fatal("ShareCOW refused an eligible transfer")
	}
	f := srcReg.FrameAt(0)
	if dstReg.FrameAt(0) != f {
		t.Fatal("receiver region does not alias the sender's frame")
	}
	if f.Refs != 2 || !f.Cow {
		t.Fatalf("shared frame Refs=%d Cow=%v, want 2 true", f.Refs, f.Cow)
	}
	// The receiver's old frame was released.
	if alloc.InUse() != inUse-1 {
		t.Fatalf("InUse=%d, want %d (old receiver frame freed)", alloc.InUse(), inUse-1)
	}
	// Reads hit on both sides without faulting.
	if v, flt := dst.Load32(0x40000); flt != nil || v != 0xfeed {
		t.Fatalf("receiver read = %#x, fault=%v; want 0xfeed, nil", v, flt)
	}
	if v, flt := src.Load32(0x10000); flt != nil || v != 0xfeed {
		t.Fatalf("sender read = %#x, fault=%v; want 0xfeed, nil", v, flt)
	}
	// Re-sending the same page is a no-op that stays shared.
	if !ShareCOW(src, 0x10000, dst, 0x40000) {
		t.Fatal("re-send of an already-shared page refused")
	}
	if f.Refs != 2 {
		t.Fatalf("re-send changed Refs to %d", f.Refs)
	}
}

// A store through either side of a share raises FaultCOW, and resolving it
// copies the page exactly once: the writer gets a private frame, the other
// side keeps the original bits.
func TestCOWBreakOnStore(t *testing.T) {
	for _, writer := range []string{"receiver", "sender"} {
		t.Run(writer, func(t *testing.T) {
			alloc, src, dst, srcReg, dstReg := cowEnv(t)
			if !ShareCOW(src, 0x10000, dst, 0x40000) {
				t.Fatal("ShareCOW refused")
			}
			was := alloc.InUse()
			wAS, wVA, oAS, oVA := dst, uint32(0x40000), src, uint32(0x10000)
			if writer == "sender" {
				wAS, wVA, oAS, oVA = src, 0x10000, dst, 0x40000
			}
			if flt := wAS.Store32(wVA, 0xdead); flt == nil {
				t.Fatal("store to shared page did not fault")
			}
			if cl, _ := wAS.Classify(wVA, cpu.Write); cl != FaultCOW {
				t.Fatalf("fault class %v, want FaultCOW", cl)
			}
			if n := resolveStore(t, wAS, wVA, 0xdead); n != 1 {
				t.Fatalf("%d page copies breaking the share, want 1", n)
			}
			if alloc.InUse() != was+1 {
				t.Fatalf("InUse=%d, want %d (one private copy)", alloc.InUse(), was+1)
			}
			if srcReg.FrameAt(0) == dstReg.FrameAt(0) {
				t.Fatal("share not broken: regions still alias one frame")
			}
			if v, _ := wAS.Load32(wVA); v != 0xdead {
				t.Fatalf("writer sees %#x, want its own store", v)
			}
			if v, flt := oAS.Load32(oVA); flt != nil || v != 0xfeed {
				t.Fatalf("other side sees %#x (fault=%v), want original 0xfeed", v, flt)
			}
			// The survivor's write permission is restored lazily without
			// another copy: refcount is back to 1.
			if n := resolveStore(t, oAS, oVA, 0xbeef); n != 0 {
				t.Fatalf("%d copies upgrading the last holder, want 0", n)
			}
			if v, _ := wAS.Load32(wVA); v != 0xdead {
				t.Fatalf("writer's page changed to %#x after the other side wrote", v)
			}
		})
	}
}

// Ineligible transfers are refused untouched: misalignment, missing source
// frame, protection, and self-send.
func TestShareCOWPreconditions(t *testing.T) {
	_, src, dst, srcReg, _ := cowEnv(t)
	if ShareCOW(src, 0x10004, dst, 0x40000) || ShareCOW(src, 0x10000, dst, 0x40004) {
		t.Fatal("unaligned share accepted")
	}
	// Source page 1 has no frame yet.
	if ShareCOW(src, 0x10000+mem.PageSize, dst, 0x40000) {
		t.Fatal("share of an absent source page accepted")
	}
	// Read-only destination.
	ro := NewAddrSpace(src.Allocator())
	mapZero(t, ro, 0x70000, mem.PageSize, PermRead)
	if ShareCOW(src, 0x10000, ro, 0x70000) {
		t.Fatal("share into a read-only mapping accepted")
	}
	// A page sent to itself succeeds as a no-op and stays unshared.
	if !ShareCOW(src, 0x10000, src, 0x10000) {
		t.Fatal("self-send should be an accepting no-op")
	}
	if f := srcReg.FrameAt(0); f.Refs != 1 || f.Cow {
		t.Fatalf("self-send changed frame state: Refs=%d Cow=%v", f.Refs, f.Cow)
	}
}

// ResolveSoft never grants cached write permission on a Cow frame, so a
// receiver that re-faults its translation (e.g. after a TLB/PTE flush)
// still traps on the next store.
func TestResolveSoftMasksWriteOnCOW(t *testing.T) {
	_, src, dst, _, _ := cowEnv(t)
	if !ShareCOW(src, 0x10000, dst, 0x40000) {
		t.Fatal("ShareCOW refused")
	}
	dst.FlushPage(0x40000)
	if err := dst.ResolveSoft(0x40000, cpu.Read); err != nil {
		t.Fatal(err)
	}
	if flt := dst.Store32(0x40000, 1); flt == nil {
		t.Fatal("store through a re-derived translation of a shared frame did not fault")
	}
	if cl, _ := dst.Classify(0x40000, cpu.Write); cl != FaultCOW {
		t.Fatal("re-derived translation lost the COW trap")
	}
}

// A tiny TLB still translates correctly: conflicting pages evict each
// other (capacity misses refill from the page table), invalidation through
// the watcher path reaches the slot actually holding the page, and the TLB
// remains a strict subset of the page table throughout.
func TestTinyTLBEvictionAndInvalidation(t *testing.T) {
	alloc := mem.NewAllocator(256)
	as := NewAddrSpaceTLB(alloc, 2)
	if as.TLBSize() != 2 {
		t.Fatalf("TLBSize=%d, want 2", as.TLBSize())
	}
	reg, _ := mapZero(t, as, 0x10000, 16*mem.PageSize, PermRW)

	// Touch every page, then re-read them all: with 2 slots and 16 pages,
	// each read round-trips through eviction and page-table refill.
	for i := uint32(0); i < 16; i++ {
		touchStore32(t, as, 0x10000+i*mem.PageSize, 0x100+i)
	}
	for i := uint32(0); i < 16; i++ {
		if v, flt := as.Load32(0x10000 + i*mem.PageSize); flt != nil || v != 0x100+i {
			t.Fatalf("page %d read %#x (fault=%v), want %#x", i, v, flt, 0x100+i)
		}
	}
	checkSubset := func() {
		t.Helper()
		for _, e := range as.tlb.Slots {
			if e.Perm == 0 {
				continue
			}
			pe := as.pt.lookup(e.VPN)
			if pe == nil || pe.frame != e.Frame || Perm(e.Perm)&^pe.perm != 0 {
				t.Fatalf("TLB entry vpn=%#x not backed by the page table", e.VPN)
			}
		}
	}
	checkSubset()

	// Invalidate a page through the region watcher path (Evict) while its
	// translation is cached: the stale slot must not survive.
	victim := uint32(0x10000 + 5*mem.PageSize)
	if v, _ := as.Load32(victim); v != 0x105 { // ensure it's TLB-resident
		t.Fatalf("victim read %#x", v)
	}
	if f := reg.Evict(5 * mem.PageSize); f != nil {
		alloc.Free(f)
	}
	if _, flt := as.Load32(victim); flt == nil {
		t.Fatal("read through an evicted page's stale translation succeeded")
	}
	checkSubset()

	// NewAddrSpaceTLB rounds odd capacities up to a power of two.
	if got := NewAddrSpaceTLB(alloc, 3).TLBSize(); got != 4 {
		t.Fatalf("TLBSize(3 requested)=%d, want 4", got)
	}
	if got := NewAddrSpaceTLB(alloc, 0).TLBSize(); got != DefaultTLBSize {
		t.Fatalf("TLBSize(0 requested)=%d, want default", got)
	}
}
