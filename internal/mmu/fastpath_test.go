package mmu

import (
	"testing"

	"repro/internal/cpu"
	"repro/internal/mem"
	"repro/internal/prog"
)

// TestEvictFlushesDerivedTranslations is the stale-translation regression
// test: Region.Evict on a mapped, already-touched page must not leave a
// PTE or TLB entry pointing at the old frame, in any importing space.
func TestEvictFlushesDerivedTranslations(t *testing.T) {
	alloc := mem.NewAllocator(1024)
	as1 := NewAddrSpace(alloc)
	as2 := NewAddrSpace(alloc)
	r := NewRegion(2*mem.PageSize, true)
	m1 := &Mapping{Region: r, Base: 0x10000, Size: r.Size, Perm: PermRW}
	m2 := &Mapping{Region: r, Base: 0x50000, Size: r.Size, Perm: PermRW}
	if err := as1.Map(m1); err != nil {
		t.Fatal(err)
	}
	if err := as2.Map(m2); err != nil {
		t.Fatal(err)
	}

	touchStore32(t, as1, 0x10000, 0xAABBCCDD)
	if _, f := as2.Load32(0x50000); f != nil {
		// as2 hasn't touched the page yet; resolve its soft fault.
		if err := as2.ResolveSoft(0x50000, cpu.Read); err != nil {
			t.Fatal(err)
		}
	}
	if v, f := as2.Load32(0x50000); f != nil || v != 0xAABBCCDD {
		t.Fatalf("shared page read = %#x, %v; want 0xAABBCCDD", v, f)
	}

	old := r.Evict(0)
	if old == nil {
		t.Fatal("Evict returned nil for a populated page")
	}
	// Both spaces held live translations; both must fault now.
	if _, f := as1.Load32(0x10000); f == nil {
		t.Fatal("as1 read hit a stale translation after Evict")
	}
	if _, f := as2.Load32(0x50000); f == nil {
		t.Fatal("as2 read hit a stale translation after Evict")
	}

	// Populate with a different frame: refaulting must observe the new
	// frame's content, not the evicted one's.
	nf, err := alloc.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	alloc.Writable(nf)[0] = 0x5A
	nf.Bump()
	r.Populate(0, nf)
	if err := as1.ResolveSoft(0x10000, cpu.Read); err != nil {
		t.Fatal(err)
	}
	if v, f := as1.Load32(0x10000); f != nil || v != 0x5A {
		t.Fatalf("read after Populate = %#x, %v; want 0x5A", v, f)
	}
	alloc.Free(old)
}

// TestPopulateReplacementFlushes: replacing a present page's frame via
// Populate must also drop derived translations.
func TestPopulateReplacementFlushes(t *testing.T) {
	as := newAS(t)
	r, _ := mapZero(t, as, 0x10000, mem.PageSize, PermRW)
	touchStore32(t, as, 0x10000, 1)

	nf, err := as.Allocator().Alloc()
	if err != nil {
		t.Fatal(err)
	}
	as.Allocator().Writable(nf)[0] = 7
	nf.Bump()
	old := r.Populate(0, nf)
	if old == nil {
		t.Fatal("expected old frame")
	}
	if _, f := as.Load32(0x10000); f == nil {
		t.Fatal("read hit a stale translation after Populate replacement")
	}
	if err := as.ResolveSoft(0x10000, cpu.Read); err != nil {
		t.Fatal(err)
	}
	if v, _ := as.Load32(0x10000); v != 7 {
		t.Fatalf("read %#x after replacement, want new frame content 7", v)
	}
}

// TestSetProtectionDropsTLB: a TLB entry filled by a successful store must
// not outlive a SetProtection to read-only.
func TestSetProtectionDropsTLB(t *testing.T) {
	as := newAS(t)
	_, m := mapZero(t, as, 0x10000, mem.PageSize, PermRW)
	touchStore32(t, as, 0x10000, 1) // fills pt and TLB with write perm

	as.SetProtection(m, PermRead)
	if f := as.Store32(0x10000, 2); f == nil {
		t.Fatal("store allowed after SetProtection to read-only")
	}
	// Reads still work after refaulting.
	if err := as.ResolveSoft(0x10000, cpu.Read); err != nil {
		t.Fatal(err)
	}
	if v, f := as.Load32(0x10000); f != nil || v != 1 {
		t.Fatalf("read = %#x, %v after SetProtection", v, f)
	}
}

// TestUnmapDropsTLB: translations (pt and TLB) must die with the mapping.
func TestUnmapDropsTLB(t *testing.T) {
	as := newAS(t)
	_, m := mapZero(t, as, 0x10000, mem.PageSize, PermRW)
	touchStore32(t, as, 0x10000, 1)

	if !as.Unmap(m) {
		t.Fatal("Unmap failed")
	}
	if _, f := as.Load32(0x10000); f == nil {
		t.Fatal("read hit a stale translation after Unmap")
	}
	if f := as.Store32(0x10000, 2); f == nil {
		t.Fatal("store hit a stale translation after Unmap")
	}
}

// TestFlushRangeHuge exercises the map-iteration path: flushing a range
// much larger than the page table must drop the covered PTEs (and leave
// uncovered ones alone) without iterating every vpn in the range.
func TestFlushRangeHuge(t *testing.T) {
	as := newAS(t)
	mapZero(t, as, 0x10000, 4*mem.PageSize, PermRW)
	mapZero(t, as, 0xF000_0000, mem.PageSize, PermRW)
	for i := uint32(0); i < 4; i++ {
		touchStore32(t, as, 0x10000+i*mem.PageSize, i+1)
	}
	touchStore32(t, as, 0xF000_0000, 99)
	if as.PTEs() != 5 {
		t.Fatalf("PTEs = %d, want 5", as.PTEs())
	}

	// A ~3.5 GB flush covering the low window but not the high one.
	as.FlushRange(0, 0xE000_0000)
	if as.PTEs() != 1 {
		t.Fatalf("PTEs = %d after huge flush, want 1", as.PTEs())
	}
	if _, f := as.Load32(0x10000); f == nil {
		t.Fatal("flushed page still translated")
	}
	if v, f := as.Load32(0xF000_0000); f != nil || v != 99 {
		t.Fatalf("uncovered page lost its translation: %#x, %v", v, f)
	}
}

// TestDirectWindow covers the page-run copy window used by the IPC path.
func TestDirectWindow(t *testing.T) {
	as := newAS(t)
	mapZero(t, as, 0x10000, 2*mem.PageSize, PermRW)
	touchStore32(t, as, 0x10000, 0x01020304)

	// Window is bounded by the page end.
	w := as.DirectWindow(0x10000+mem.PageSize-8, cpu.Read, 64)
	if len(w) != 8 {
		t.Fatalf("window len = %d, want 8 (page bounded)", len(w))
	}
	// Respects max.
	if w := as.DirectWindow(0x10000, cpu.Read, 12); len(w) != 12 {
		t.Fatalf("window len = %d, want 12", len(w))
	}
	// No translation -> nil (second page untouched).
	if w := as.DirectWindow(0x10000+mem.PageSize, cpu.Read, 4); w != nil {
		t.Fatal("window for untranslated page")
	}
	// Write windows bump the frame generation so decode caches notice.
	e := as.pt.lookup(mem.VPN(0x10000))
	if e == nil {
		t.Fatal("no pte")
	}
	gen := e.frame.Gen
	if w := as.DirectWindow(0x10000, cpu.Write, 4); w == nil {
		t.Fatal("no write window")
	} else if e.frame.Gen == gen {
		t.Fatal("write window did not bump the frame generation")
	}
	// Disabled fast paths -> nil.
	as.SetFastPaths(false)
	if w := as.DirectWindow(0x10000, cpu.Read, 4); w != nil {
		t.Fatal("window with fast paths disabled")
	}
}

// TestProbePurity: DecodedPageFor and DirectWindow are probes — they must
// not count diagnostic faults even when the translation is missing.
func TestProbePurity(t *testing.T) {
	as := newAS(t)
	mapZero(t, as, 0x10000, mem.PageSize, PermRWX)
	before := as.Faults
	if dp := as.DecodedPageFor(0x10000); dp != nil {
		t.Fatal("decoded page before any translation exists")
	}
	if w := as.DirectWindow(0x10000, cpu.Read, 4); w != nil {
		t.Fatal("window before any translation exists")
	}
	if as.Faults != before {
		t.Fatalf("probes counted faults: %d -> %d", before, as.Faults)
	}
}

// TestTLBSubsetOfPT: randomized flush/touch traffic must never leave a TLB
// slot whose vpn lacks a matching PTE (the TLB ⊆ pt invariant).
func TestTLBSubsetOfPT(t *testing.T) {
	as := newAS(t)
	mapZero(t, as, 0x10000, 64*mem.PageSize, PermRW)
	check := func(when string) {
		t.Helper()
		for _, e := range as.tlb.Slots {
			if e.Perm == 0 {
				continue
			}
			pe := as.pt.lookup(e.VPN)
			if pe == nil || pe.frame != e.Frame || pe.perm != Perm(e.Perm) {
				t.Fatalf("%s: TLB slot vpn=%#x not backed by pt", when, e.VPN)
			}
		}
	}
	for i := uint32(0); i < 64; i++ {
		touchStore32(t, as, 0x10000+i*mem.PageSize, i)
	}
	check("after touch")
	as.FlushRange(0x10000+4*mem.PageSize, 8*mem.PageSize)
	check("after FlushRange")
	as.FlushPage(0x10000)
	check("after FlushPage")
	as.FlushRange(0, 0xFFFF_F000)
	check("after huge flush")
}

// TestPresentMatchesPageTable: Present may answer from the TLB, so it must
// agree with the page table for every page and access through TLB fills,
// dirty-tracking write masks, protection changes, flushes and unmaps —
// with fast paths on and off — and, being a probe, must count no faults
// and leave the TLB as it found it.
func TestPresentMatchesPageTable(t *testing.T) {
	const base, pages = 0x10000, 8
	for _, fast := range []bool{true, false} {
		as := newAS(t)
		as.SetFastPaths(fast)
		r, m := mapZero(t, as, base, pages*mem.PageSize, PermRW)
		check := func(when string) {
			t.Helper()
			faults := as.Faults
			tlb := append([]cpu.TLBEntry(nil), as.tlb.Slots...)
			for p := uint32(0); p < pages+1; p++ { // one page past the mapping too
				va := base + p*mem.PageSize + 8
				for _, acc := range []cpu.Access{cpu.Read, cpu.Write, cpu.Exec} {
					e := as.pt.lookup(mem.VPN(va))
					want := e != nil && e.perm&needs(acc) != 0
					if got := as.Present(va, acc); got != want {
						t.Fatalf("fast=%v %s: Present(%#x, %v) = %v, page table says %v", fast, when, va, acc, got, want)
					}
				}
			}
			if as.Faults != faults {
				t.Fatalf("fast=%v %s: Present counted faults", fast, when)
			}
			for i := range tlb {
				if tlb[i] != as.tlb.Slots[i] {
					t.Fatalf("fast=%v %s: Present changed TLB slot %d", fast, when, i)
				}
			}
		}
		check("empty")
		for p := uint32(0); p < pages; p += 2 {
			touchStore32(t, as, base+p*mem.PageSize, p)
		}
		check("after touch")
		r.StartDirtyTracking()
		if _, f := as.Load32(base); f != nil { // refill an armed page: TLB write bit masked
			t.Fatal(f)
		}
		check("dirty tracking armed")
		as.FlushPage(base + 2*mem.PageSize)
		check("after FlushPage")
		as.SetProtection(m, PermRead)
		check("after SetProtection")
		if err := as.ResolveSoft(base, cpu.Read); err != nil {
			t.Fatal(err)
		}
		if _, f := as.Load32(base); f != nil {
			t.Fatal(f)
		}
		check("read-only refill")
		as.Unmap(m)
		check("after Unmap")
	}
}

// TestLoopReadsRespectProtection: a folded loop sweeps from a readable
// page into a write-only one whose translation a store has already cached
// in the TLB. Its first load there must fault, on the same pass as the
// Step loop's, rather than read through that slot or a window derived
// from it.
func TestLoopReadsRespectProtection(t *testing.T) {
	const (
		code = 0x1_0000
		rw   = 0x4_0000
		wo   = rw + mem.PageSize
	)
	for _, op := range []cpu.Opcode{cpu.OpLdb, cpu.OpLd} {
		b := prog.New(code)
		b.Movi(6, wo-64).Movi(5, wo+64).
			Label("loop").Stb(6, 0, 6).Addi(1, 1, 1)
		if op == cpu.OpLd {
			b.Ld(3, 6, 0).Addi(6, 6, 4)
		} else {
			b.Ldb(3, 6, 0).Addi(6, 6, 1)
		}
		b.Blt(6, 5, "loop").Halt()
		img := b.MustAssemble()
		run := func(tier string) (cpu.Regs, uint64, cpu.Trap, cpu.ExecStats) {
			as := newAS(t)
			mapZero(t, as, code, mem.PageSize, PermRWX)
			mapZero(t, as, rw, mem.PageSize, PermRW)
			mapZero(t, as, wo, mem.PageSize, PermWrite)
			for i := 0; i < len(img); i += 4 {
				touchStore32(t, as, code+uint32(i), uint32(img[i])|uint32(img[i+1])<<8|uint32(img[i+2])<<16|uint32(img[i+3])<<24)
			}
			touchStore32(t, as, rw, 0)
			touchStore32(t, as, wo+32, 0) // the write-only slot is cached
			r := cpu.Regs{PC: code}
			var cycles uint64
			for {
				var c uint64
				var tr cpu.Trap
				if tier == "step" {
					c, tr = cpu.Step(&r, as)
				} else {
					c, _, tr = cpu.StepN(&r, as, 1<<40)
				}
				cycles += c
				if tr.Kind != cpu.TrapNone {
					return r, cycles, tr, *as.ExecStats()
				}
			}
		}
		wr, wc, wt, _ := run("step")
		gr, gc, gt, es := run("threaded")
		if wt.Kind != cpu.TrapFault || wt.Fault.VA != wo {
			t.Fatalf("%v: reference trap %+v, want a read fault at %#x", op, wt, wo)
		}
		if es.LoopPasses == 0 {
			t.Fatalf("%v: the sweep was not folded: %+v", op, es)
		}
		if gr != wr || gc != wc || gt != wt {
			t.Fatalf("%v: folded loop %+v %d cycles %+v, Step loop %+v %d cycles %+v", op, gr, gc, gt, wr, wc, wt)
		}
	}
}
