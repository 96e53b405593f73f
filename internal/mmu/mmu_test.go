package mmu

import (
	"testing"
	"testing/quick"

	"repro/internal/cpu"
	"repro/internal/mem"
)

func newAS(t *testing.T) *AddrSpace {
	t.Helper()
	return NewAddrSpace(mem.NewAllocator(1024))
}

// mapZero maps a fresh demand-zero region of size at base with perm.
func mapZero(t *testing.T, as *AddrSpace, base, size uint32, p Perm) (*Region, *Mapping) {
	t.Helper()
	r := NewRegion(size, true)
	m := &Mapping{Region: r, Base: base, Size: r.Size, Perm: p}
	if err := as.Map(m); err != nil {
		t.Fatal(err)
	}
	return r, m
}

// touch resolves faults until the access succeeds, like the kernel's
// fault-and-restart loop, but only for soft faults.
func touchStore32(t *testing.T, as *AddrSpace, va, v uint32) {
	t.Helper()
	for i := 0; i < 3; i++ {
		if f := as.Store32(va, v); f == nil {
			return
		}
		cl, _ := as.Classify(va, cpu.Write)
		if cl != FaultSoft {
			t.Fatalf("store %#x: fault class %v", va, cl)
		}
		if err := as.ResolveSoft(va, cpu.Write); err != nil {
			t.Fatal(err)
		}
	}
	t.Fatalf("store %#x: fault loop did not converge", va)
}

func TestDemandZeroSoftFaultRestart(t *testing.T) {
	as := newAS(t)
	mapZero(t, as, 0x10000, 2*mem.PageSize, PermRW)

	if _, f := as.Load32(0x10000); f == nil {
		t.Fatal("expected fault on first touch")
	}
	cl, m := as.Classify(0x10000, cpu.Read)
	if cl != FaultSoft || m == nil {
		t.Fatalf("class=%v mapping=%v, want soft", cl, m)
	}
	if err := as.ResolveSoft(0x10000, cpu.Read); err != nil {
		t.Fatal(err)
	}
	v, f := as.Load32(0x10000)
	if f != nil || v != 0 {
		t.Fatalf("after resolve: v=%d f=%v", v, f)
	}
}

func TestStoreLoadRoundTrip(t *testing.T) {
	as := newAS(t)
	mapZero(t, as, 0x20000, mem.PageSize, PermRW)
	touchStore32(t, as, 0x20004, 0xCAFEBABE)
	v, f := as.Load32(0x20004)
	if f != nil || v != 0xCAFEBABE {
		t.Fatalf("v=%#x f=%v", v, f)
	}
	// Byte view of the same word (little-endian).
	b, f := as.Load8(0x20004)
	if f != nil || b != 0xBE {
		t.Fatalf("b=%#x f=%v", b, f)
	}
}

func TestMisalignedAccessFaults(t *testing.T) {
	as := newAS(t)
	mapZero(t, as, 0, mem.PageSize, PermRWX)
	touchStore32(t, as, 0, 1)
	if _, f := as.Load32(2); f == nil {
		t.Fatal("misaligned load did not fault")
	}
	if f := as.Store32(1, 0); f == nil {
		t.Fatal("misaligned store did not fault")
	}
	if _, f := as.Fetch32(6); f == nil {
		t.Fatal("misaligned fetch did not fault")
	}
}

func TestProtection(t *testing.T) {
	as := newAS(t)
	r, m := mapZero(t, as, 0x30000, mem.PageSize, PermRead)
	// Pre-populate the page so reads are soft-resolvable.
	f, _ := as.Allocator().Alloc()
	r.Populate(0, f)
	if err := as.ResolveSoft(0x30000, cpu.Read); err != nil {
		t.Fatal(err)
	}
	if _, flt := as.Load32(0x30000); flt != nil {
		t.Fatal("read denied on readable page")
	}
	if flt := as.Store32(0x30000, 1); flt == nil {
		t.Fatal("write allowed on read-only page")
	}
	cl, _ := as.Classify(0x30000, cpu.Write)
	if cl != FaultFatal {
		t.Fatalf("write to read-only classifies as %v, want fatal", cl)
	}
	// Upgrading protection flushes PTEs; next write soft-faults then works.
	as.SetProtection(m, PermRW)
	touchStore32(t, as, 0x30000, 7)
}

func TestUnmappedIsFatal(t *testing.T) {
	as := newAS(t)
	cl, m := as.Classify(0xDEAD0000, cpu.Read)
	if cl != FaultFatal || m != nil {
		t.Fatalf("class=%v m=%v", cl, m)
	}
}

func TestHardFaultClassification(t *testing.T) {
	as := newAS(t)
	r := NewRegion(4*mem.PageSize, false)
	r.Pager = "pager-port"
	m := &Mapping{Region: r, Base: 0x40000, Size: r.Size, Perm: PermRW}
	if err := as.Map(m); err != nil {
		t.Fatal(err)
	}
	cl, _ := as.Classify(0x40000, cpu.Read)
	if cl != FaultHard {
		t.Fatalf("class=%v, want hard", cl)
	}
	// Once the pager populates the page, the same fault becomes soft.
	f, _ := as.Allocator().Alloc()
	as.Allocator().Writable(f)[0] = 0x5A
	r.Populate(0, f)
	cl, _ = as.Classify(0x40000, cpu.Read)
	if cl != FaultSoft {
		t.Fatalf("after populate: class=%v, want soft", cl)
	}
	if err := as.ResolveSoft(0x40000, cpu.Read); err != nil {
		t.Fatal(err)
	}
	b, flt := as.Load8(0x40000)
	if flt != nil || b != 0x5A {
		t.Fatalf("b=%#x flt=%v", b, flt)
	}
}

func TestPagerBackedWithoutFrameNoDemandZero(t *testing.T) {
	as := newAS(t)
	r := NewRegion(mem.PageSize, false) // no pager, no demand-zero
	m := &Mapping{Region: r, Base: 0x50000, Size: r.Size, Perm: PermRW}
	if err := as.Map(m); err != nil {
		t.Fatal(err)
	}
	cl, _ := as.Classify(0x50000, cpu.Read)
	if cl != FaultFatal {
		t.Fatalf("class=%v, want fatal (no backing, no pager)", cl)
	}
}

func TestSharedRegionTwoSpaces(t *testing.T) {
	alloc := mem.NewAllocator(64)
	as1 := NewAddrSpace(alloc)
	as2 := NewAddrSpace(alloc)
	r := NewRegion(mem.PageSize, true)
	if err := as1.Map(&Mapping{Region: r, Base: 0x1000, Size: r.Size, Perm: PermRW}); err != nil {
		t.Fatal(err)
	}
	if err := as2.Map(&Mapping{Region: r, Base: 0x9000, Size: r.Size, Perm: PermRW}); err != nil {
		t.Fatal(err)
	}
	// Write via as1, read via as2: same physical page.
	if err := as1.ResolveSoft(0x1000, cpu.Write); err != nil {
		t.Fatal(err)
	}
	if f := as1.Store32(0x1000, 0x1234); f != nil {
		t.Fatal(f)
	}
	if err := as2.ResolveSoft(0x9000, cpu.Read); err != nil {
		t.Fatal(err)
	}
	v, f := as2.Load32(0x9000)
	if f != nil || v != 0x1234 {
		t.Fatalf("v=%#x f=%v", v, f)
	}
}

func TestMappingWindowOffset(t *testing.T) {
	alloc := mem.NewAllocator(64)
	as := NewAddrSpace(alloc)
	r := NewRegion(4*mem.PageSize, true)
	// Map only page 2 of the region.
	m := &Mapping{Region: r, RegionOff: 2 * mem.PageSize, Base: 0x8000, Size: mem.PageSize, Perm: PermRW}
	if err := as.Map(m); err != nil {
		t.Fatal(err)
	}
	if err := as.ResolveSoft(0x8000, cpu.Write); err != nil {
		t.Fatal(err)
	}
	as.Store32(0x8000, 99)
	if r.FrameAt(2*mem.PageSize) == nil {
		t.Fatal("page 2 of region not populated")
	}
	if r.FrameAt(0) != nil {
		t.Fatal("page 0 of region unexpectedly populated")
	}
}

func TestOverlapRejected(t *testing.T) {
	as := newAS(t)
	mapZero(t, as, 0x10000, 2*mem.PageSize, PermRW)
	r := NewRegion(mem.PageSize, true)
	err := as.Map(&Mapping{Region: r, Base: 0x11000, Size: mem.PageSize, Perm: PermRW})
	if err == nil {
		t.Fatal("overlapping map accepted")
	}
}

func TestUnalignedMapRejected(t *testing.T) {
	as := newAS(t)
	r := NewRegion(mem.PageSize, true)
	if err := as.Map(&Mapping{Region: r, Base: 0x100, Size: mem.PageSize, Perm: PermRW}); err == nil {
		t.Fatal("unaligned base accepted")
	}
	if err := as.Map(&Mapping{Region: r, Base: 0x1000, Size: 100, Perm: PermRW}); err == nil {
		t.Fatal("unaligned size accepted")
	}
}

func TestWindowOutsideRegionRejected(t *testing.T) {
	as := newAS(t)
	r := NewRegion(mem.PageSize, true)
	err := as.Map(&Mapping{Region: r, RegionOff: mem.PageSize, Base: 0x1000, Size: mem.PageSize, Perm: PermRW})
	if err == nil {
		t.Fatal("out-of-region window accepted")
	}
}

func TestUnmapFlushesPTEs(t *testing.T) {
	as := newAS(t)
	_, m := mapZero(t, as, 0x10000, mem.PageSize, PermRW)
	touchStore32(t, as, 0x10000, 5)
	if as.PTEs() != 1 {
		t.Fatalf("PTEs=%d", as.PTEs())
	}
	if !as.Unmap(m) {
		t.Fatal("Unmap returned false")
	}
	if as.PTEs() != 0 {
		t.Fatal("PTE survived unmap")
	}
	if _, f := as.Load32(0x10000); f == nil {
		t.Fatal("access after unmap succeeded")
	}
	if as.Unmap(m) {
		t.Fatal("double unmap returned true")
	}
}

func TestEvictForcesRefault(t *testing.T) {
	as := newAS(t)
	r, _ := mapZero(t, as, 0x10000, mem.PageSize, PermRW)
	touchStore32(t, as, 0x10000, 5)
	f := r.Evict(0)
	if f == nil {
		t.Fatal("evict returned nil")
	}
	as.FlushPage(0x10000)
	if _, flt := as.Load32(0x10000); flt == nil {
		t.Fatal("no fault after evict+flush")
	}
	// Demand-zero: resolving gives a fresh zero page (old data gone).
	if err := as.ResolveSoft(0x10000, cpu.Read); err != nil {
		t.Fatal(err)
	}
	v, _ := as.Load32(0x10000)
	if v != 0 {
		t.Fatalf("v=%d, want 0 (fresh zero page)", v)
	}
}

func TestFaultCounting(t *testing.T) {
	as := newAS(t)
	mapZero(t, as, 0x10000, mem.PageSize, PermRW)
	as.Load32(0x10000)
	as.Load32(0x10000)
	if as.Faults != 2 {
		t.Fatalf("Faults=%d, want 2", as.Faults)
	}
}

// Property: after ResolveSoft for a write, a store/load round-trips any
// value at any aligned offset within the mapping.
func TestPropertyRoundTripAnywhere(t *testing.T) {
	alloc := mem.NewAllocator(1024)
	as := NewAddrSpace(alloc)
	r := NewRegion(16*mem.PageSize, true)
	if err := as.Map(&Mapping{Region: r, Base: 0x100000, Size: r.Size, Perm: PermRW}); err != nil {
		t.Fatal(err)
	}
	f := func(off uint32, v uint32) bool {
		va := 0x100000 + (off%(16*mem.PageSize))&^3
		if flt := as.Store32(va, v); flt != nil {
			if err := as.ResolveSoft(va, cpu.Write); err != nil {
				return false
			}
			if flt := as.Store32(va, v); flt != nil {
				return false
			}
		}
		got, flt := as.Load32(va)
		return flt == nil && got == v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: classification is stable — classifying twice without state
// change gives the same answer, and resolving a soft fault makes the page
// present for that access.
func TestPropertyClassifyResolve(t *testing.T) {
	alloc := mem.NewAllocator(4096)
	as := NewAddrSpace(alloc)
	r := NewRegion(64*mem.PageSize, true)
	if err := as.Map(&Mapping{Region: r, Base: 0x200000, Size: r.Size, Perm: PermRW}); err != nil {
		t.Fatal(err)
	}
	f := func(page uint8) bool {
		va := 0x200000 + uint32(page%64)*mem.PageSize
		c1, _ := as.Classify(va, cpu.Read)
		c2, _ := as.Classify(va, cpu.Read)
		if c1 != c2 || c1 != FaultSoft {
			return false
		}
		if err := as.ResolveSoft(va, cpu.Read); err != nil {
			return false
		}
		return as.Present(va, cpu.Read)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
