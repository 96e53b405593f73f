package core_test

// Counted loops through a whole kernel. The interpreter folds a self-loop
// whose body ends in its induction step (cpu.runLoop) and reads through a
// one-page window that outlives single accesses; these tests pin that the
// mmu invariants the TLB and the window lean on hold inside such a loop —
// a dirty-tracked page is logged, a copy-on-write page faults, a pager
// page hard-faults — exactly where the per-instruction interpreter says,
// with every fast path on, with fused blocks off and with fast paths off.

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/mmu"
	"repro/internal/obj"
	"repro/internal/prog"
	"repro/internal/trace"
	"repro/internal/workload"
)

// interpVariants are the interpreter settings a counted loop must be
// invisible across: the first is the default, the others its oracles.
var interpVariants = []struct {
	name  string
	apply func(*core.Config)
}{
	{"default", func(*core.Config) {}},
	{"threaded code off", func(c *core.Config) { c.DisableThreadedCode = true }},
	{"fast paths off", func(c *core.Config) { c.DisableFastPath = true }},
}

// loopOutcome is what a counted-loop run must reproduce under every
// interpreter variant.
type loopOutcome struct {
	mem    []byte
	stats  core.Stats
	now    uint64
	faults [][2]uint32 // (VA, class|side<<8) of every fault, in order
	dirty  []int       // DirtyCount after each phase (dirty-tracking runs)
}

// faultLog is the kernel's fault sequence from its trace ring.
func faultLog(t *testing.T, k *core.Kernel) [][2]uint32 {
	t.Helper()
	var out [][2]uint32
	for _, ev := range k.Tracer.Events() {
		if ev.Kind == trace.Fault {
			out = append(out, [2]uint32{ev.A, ev.B})
		}
	}
	if k.Tracer.Dropped() != 0 {
		t.Fatal("trace ring overflowed")
	}
	return out
}

// checkLoopVariants runs fn under every interpreter variant of every paper
// configuration and requires identical outcomes within a configuration; it
// also requires the default variant to have folded at least one loop pass.
func checkLoopVariants(t *testing.T, fn func(t *testing.T, cfg core.Config) (loopOutcome, *core.Kernel)) {
	forEachConfig(t, func(t *testing.T, cfg core.Config) {
		var want loopOutcome
		for i, v := range interpVariants {
			c := cfg
			v.apply(&c)
			got, k := fn(t, c)
			es := k.ExecStats()
			switch {
			case i == 0 && es.LoopPasses == 0:
				t.Fatalf("%s: no counted-loop pass ran: %+v", v.name, es)
			case i > 0 && es.LoopPasses != 0:
				t.Fatalf("%s: %d counted-loop passes ran", v.name, es.LoopPasses)
			}
			if i == 0 {
				want = got
				continue
			}
			switch {
			case !bytes.Equal(got.mem, want.mem):
				t.Errorf("%s: memory differs", v.name)
			case !reflect.DeepEqual(got.faults, want.faults):
				t.Errorf("%s: fault sequence differs:\n got %x\nwant %x", v.name, got.faults, want.faults)
			case !reflect.DeepEqual(got.dirty, want.dirty):
				t.Errorf("%s: dirty log sizes %v, want %v", v.name, got.dirty, want.dirty)
			case got.now != want.now:
				t.Errorf("%s: virtual time %d, want %d", v.name, got.now, want.now)
			case !reflect.DeepEqual(got.stats, want.stats):
				t.Errorf("%s: Stats differ:\n got %+v\nwant %+v", v.name, got.stats, want.stats)
			}
		}
	})
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
	checkLoopVariants(t, func(t *testing.T, cfg core.Config) (loopOutcome, *core.Kernel) {
		e := newEnv(t, cfg)
		k := e.k
		k.Tracer = trace.NewRing(1 << 12)
		r, err := k.NewBoundRegion(e.s, kernelDataHandle(), pages*pg, true)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := k.MapInto(e.s, r, va, 0, pages*pg, mmu.PermRW); err != nil {
			t.Fatal(err)
		}
		if err := k.WriteMem(e.s, va, make([]byte, pages*pg)); err != nil {
			t.Fatal(err)
		}
		var out loopOutcome
		for phase := 0; phase < 2; phase++ {
			r.R.StartDirtyTracking()
			b := prog.New(codeBase + uint32(phase)*pg)
			sweepLoop(b, "sweep", va, va+pages*pg, 16)
			b.Halt()
			th, err := k.SpawnProgram(e.s, b.Base(), b.MustAssemble(), 10)
			if err != nil {
				t.Fatal(err)
			}
			e.run(t, 1<<32, th)
			out.dirty = append(out.dirty, r.R.DirtyCount())
			if n := r.R.DirtyCount(); n != pages {
				t.Fatalf("phase %d: %d pages logged, want each of %d once", phase, n, pages)
			}
			for p := uint32(0); p < pages; p++ {
				if !r.R.IsDirty(p * pg) {
					t.Fatalf("phase %d: page %d stored but not logged", phase, p)
				}
			}
		}
		if out.mem, err = k.ReadMem(e.s, va, pages*pg); err != nil {
			t.Fatal(err)
		}
		out.stats, out.now, out.faults = k.Stats(), k.Clock.Now(), faultLog(t, k)
		return out, k
	})
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
	checkLoopVariants(t, func(t *testing.T, cfg core.Config) (loopOutcome, *core.Kernel) {
		k := core.New(cfg)
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
		var out loopOutcome
		out.stats, out.now, out.faults = k.Stats(), k.Clock.Now(), faultLog(t, k)
		cows := 0
		for _, f := range out.faults {
			if mmu.FaultClass(f[1]&0xFF) == mmu.FaultCOW {
				cows++
			}
		}
		if cows != 2 {
			t.Fatalf("%d COW faults %x, want one per shared page", cows, out.faults)
		}
		srcMem, err := k.ReadMem(src, srcVA, pages*pg)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(srcMem, img) {
			t.Fatal("the sharing space saw the loop's stores")
		}
		if out.mem, err = k.ReadMem(dst, dstVA, pages*pg); err != nil {
			t.Fatal(err)
		}
		return out, k
	})
}

// TestCountedLoopMemtestRestarts: memtest's byte sweep takes its hard fault
// at the first byte of every page, inside a folded loop, and the fault
// sequence, the restart counts (interrupt model), the rest of Stats and
// the clock are those of the per-instruction interpreter. The folded
// passes are exported as the cpu.blocks.loop_passes gauge.
func TestCountedLoopMemtestRestarts(t *testing.T) {
	const pages = 24
	checkLoopVariants(t, func(t *testing.T, cfg core.Config) (loopOutcome, *core.Kernel) {
		k := core.New(cfg)
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
		if got, want := k.Metrics.LoopPasses.Value(), k.ExecStats().LoopPasses; got != int64(want) {
			t.Fatalf("cpu.blocks.loop_passes = %d, ExecStats says %d", got, want)
		}
		var out loopOutcome
		out.stats, out.now, out.faults = k.Stats(), k.Clock.Now(), faultLog(t, k)
		if n := out.stats.FaultCount[core.FaultKey{Class: mmu.FaultHard, Side: core.FaultSame}]; n != pages {
			t.Fatalf("%d hard faults counted, want one per page (%d)", n, pages)
		}
		hard := 0
		for _, f := range out.faults {
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
		return out, k
	})
}
