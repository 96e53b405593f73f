package core_test

// Counted loops through a whole kernel. The interpreter folds a self-loop
// whose body ends in its induction step (cpu.runLoop) and reads through a
// one-page window that outlives single accesses; these tests pin that the
// mmu invariants the TLB and the window lean on hold inside such a loop —
// a dirty-tracked page is logged, a copy-on-write page faults, a pager
// page hard-faults — exactly where the per-instruction interpreter says:
// the harness compares memory, fault trace, dirty-log sizes, Stats and
// the clock with fused blocks off and with fast paths off.

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/equiv"
	"repro/internal/mem"
	"repro/internal/mmu"
	"repro/internal/obj"
	"repro/internal/prog"
	"repro/internal/trace"
	"repro/internal/workload"
)

// loopScenario is a counted-loop program under the interpreter variants
// and the profiler; its default run must fold at least one loop pass and
// move every counter in fires.
func loopScenario(run func(t *testing.T, r *equiv.Run) *equiv.Digest, fires ...string) equiv.Scenario {
	return equiv.Scenario{Flags: []equiv.Flag{equiv.FastPath, equiv.ThreadedCode, equiv.Profiler},
		Fires: append([]string{"LoopPasses"}, fires...), Run: run}
}

// sweepLoop emits a counted byte loop over [from, to): read a byte, store
// it plus one back `stride` bytes on, step by stride.
func sweepLoop(b *prog.Builder, label string, from, to, stride uint32) {
	b.Movi(6, from).Movi(5, to).
		Label(label).
		Ldb(3, 6, 0).Addi(3, 3, 1).Stb(6, stride/2, 3).
		Addi(6, 6, stride).Blt(6, 5, label)
}

// TestCountedLoopDirtyTracking: with dirty tracking armed on a region whose
// pages are already translated (TLB slots writable), a counted loop that
// stores into every page logs each page exactly once; re-arming and
// sweeping again logs them all again, so no store reached a page through
// a slot the re-arm had write-protected.
func TestCountedLoopDirtyTracking(t *testing.T) {
	const (
		pg    = mem.PageSize
		pages = 8
		va    = 0x0008_0000
	)
	equiv.Check(t, loopScenario(func(t *testing.T, r *equiv.Run) *equiv.Digest {
		e := newEnv(t, r.Config)
		k := e.k
		k.Tracer = trace.NewRing(1 << 12)
		reg, err := k.NewBoundRegion(e.s, kernelDataHandle(), pages*pg, true)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := k.MapInto(e.s, reg, va, 0, pages*pg, mmu.PermRW); err != nil {
			t.Fatal(err)
		}
		if err := k.WriteMem(e.s, va, make([]byte, pages*pg)); err != nil {
			t.Fatal(err)
		}
		var dirty []int
		for phase := 0; phase < 2; phase++ {
			reg.R.StartDirtyTracking()
			b := prog.New(codeBase + uint32(phase)*pg)
			sweepLoop(b, "sweep", va, va+pages*pg, 16)
			b.Halt()
			th, err := k.SpawnProgram(e.s, b.Base(), b.MustAssemble(), 10)
			if err != nil {
				t.Fatal(err)
			}
			e.run(t, 1<<32, th)
			dirty = append(dirty, reg.R.DirtyCount())
			if n := reg.R.DirtyCount(); n != pages {
				t.Fatalf("phase %d: %d pages logged, want each of %d once", phase, n, pages)
			}
			for p := uint32(0); p < pages; p++ {
				if !reg.R.IsDirty(p * pg) {
					t.Fatalf("phase %d: page %d stored but not logged", phase, p)
				}
			}
		}
		d := equiv.Take(t, k)
		d.Mem, d.Dirty = []equiv.Range{equiv.Read(t, k, e.s, "swept region", va, pages*pg)}, dirty
		return d
	}))
}

// TestCountedLoopCOW: a counted loop that reads and then writes pages
// shared copy-on-write faults on its first store to each shared page, on
// the same pass and with the same restart as the per-instruction loop, and
// the sharing side keeps the original bytes.
func TestCountedLoopCOW(t *testing.T) {
	const (
		pg    = mem.PageSize
		pages = 4
		srcVA = 0x0008_0000
		dstVA = 0x000C_0000
	)
	equiv.Check(t, loopScenario(func(t *testing.T, r *equiv.Run) *equiv.Digest {
		k := core.New(r.Config)
		t.Cleanup(k.Shutdown)
		k.Tracer = trace.NewRing(1 << 12)
		src, dst := k.NewSpace(), k.NewSpace()
		mapRegion := func(s *obj.Space, va uint32) {
			r, err := k.NewBoundRegion(s, kernelDataHandle(), pages*pg, true)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := k.MapInto(s, r, va, 0, pages*pg, mmu.PermRW); err != nil {
				t.Fatal(err)
			}
		}
		mapRegion(src, srcVA)
		mapRegion(dst, dstVA)
		img := make([]byte, pages*pg)
		for i := range img {
			img[i] = byte(i*7 + i>>12)
		}
		if err := k.WriteMem(src, srcVA, img); err != nil {
			t.Fatal(err)
		}
		if err := k.WriteMem(dst, dstVA, make([]byte, pages*pg)); err != nil {
			t.Fatal(err)
		}
		// Share pages 0 and 2; 1 and 3 stay private to the loop's space.
		for _, p := range []uint32{0, 2} {
			if !mmu.ShareCOW(src.AS, srcVA+p*pg, dst.AS, dstVA+p*pg) {
				t.Fatalf("ShareCOW refused page %d", p)
			}
		}
		b := prog.New(codeBase)
		sweepLoop(b, "sweep", dstVA+8, dstVA+pages*pg-8, 8)
		b.Halt()
		th, err := k.SpawnProgram(dst, codeBase, b.MustAssemble(), 10)
		if err != nil {
			t.Fatal(err)
		}
		k.RunFor(1 << 32)
		if !th.Exited {
			t.Fatalf("loop did not finish (pc=%#x)", th.Regs.PC)
		}
		d := equiv.Take(t, k)
		cows := 0
		for _, f := range d.Faults {
			if mmu.FaultClass(f[1]&0xFF) == mmu.FaultCOW {
				cows++
			}
		}
		if cows != 2 {
			t.Fatalf("%d COW faults %x, want one per shared page", cows, d.Faults)
		}
		srcMem, err := k.ReadMem(src, srcVA, pages*pg)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(srcMem, img) {
			t.Fatal("the sharing space saw the loop's stores")
		}
		d.Mem = []equiv.Range{equiv.Read(t, k, dst, "swept region", dstVA, pages*pg)}
		return d
	}))
}

// TestCountedLoopMemtestRestarts: memtest's byte sweep takes its hard fault
// at the first byte of every page, inside a folded loop, and the fault
// sequence, the restart counts (interrupt model), the rest of Stats and
// the clock are those of the per-instruction interpreter. The sweep is
// pass-idempotent, so most of each page's passes are fast-forwarded; the
// folded and the skipped passes are exported as the cpu.blocks.loop_passes
// and cpu.blocks.loop_skipped gauges.
func TestCountedLoopMemtestRestarts(t *testing.T) {
	const pages = 8
	equiv.Check(t, loopScenario(func(t *testing.T, r *equiv.Run) *equiv.Digest {
		k := core.New(r.Config)
		t.Cleanup(k.Shutdown)
		k.Tracer = trace.NewRing(1 << 14)
		k.EnableMetrics()
		w, err := workload.NewMemtest(k, pages*mem.PageSize)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.Run(1 << 34); err != nil {
			t.Fatal(err)
		}
		k.SyncTraceMetrics()
		es := k.ExecStats()
		if got, want := k.Metrics.LoopPasses.Value(), es.LoopPasses; got != int64(want) {
			t.Fatalf("cpu.blocks.loop_passes = %d, ExecStats says %d", got, want)
		}
		if got, want := k.Metrics.LoopSkips.Value(), es.LoopSkips; got != int64(want) {
			t.Fatalf("cpu.blocks.loop_skipped = %d, ExecStats says %d", got, want)
		}
		d := equiv.Take(t, k)
		if n := d.Stats.FaultCount[core.FaultKey{Class: mmu.FaultHard, Side: core.FaultSame}]; n != pages {
			t.Fatalf("%d hard faults counted, want one per page (%d)", n, pages)
		}
		hard := 0
		for _, f := range d.Faults {
			if mmu.FaultClass(f[1]&0xFF) == mmu.FaultHard {
				if f[0]%mem.PageSize != 0 {
					t.Fatalf("hard fault at %#x, want page boundaries only", f[0])
				}
				hard++
			}
		}
		if hard != pages {
			t.Fatalf("%d hard faults, want %d", hard, pages)
		}
		return d
	}, "LoopSkips"))
}
