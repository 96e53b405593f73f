package mmu

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/cpu"
	"repro/internal/mem"
	"repro/internal/prog"
)

// regDev is a trivial register file for MMIO tests.
type regDev struct {
	regs map[uint32]uint32
}

func (d *regDev) IORead32(off uint32) uint32 { return d.regs[off] }
func (d *regDev) IOWrite32(off uint32, v uint32) {
	if d.regs == nil {
		d.regs = map[uint32]uint32{}
	}
	d.regs[off] = v
}

func TestMapIOValidation(t *testing.T) {
	as := NewAddrSpace(mem.NewAllocator(16))
	d := &regDev{}
	if err := as.MapIO(0x1000, 0, d); err == nil {
		t.Fatal("zero-size window accepted")
	}
	if err := as.MapIO(0x1004, mem.PageSize, d); err == nil {
		t.Fatal("unaligned base accepted")
	}
	if err := as.MapIO(0x1000, mem.PageSize, nil); err == nil {
		t.Fatal("nil handler accepted")
	}
	if err := as.MapIO(0x1000, mem.PageSize, d); err != nil {
		t.Fatal(err)
	}
	if as.IOWindows() != 1 {
		t.Fatal("window count")
	}
	// Overlap with another window.
	if err := as.MapIO(0x1000, mem.PageSize, d); err == nil {
		t.Fatal("overlapping window accepted")
	}
	// Overlap with a mapping.
	r := NewRegion(mem.PageSize, true)
	if err := as.Map(&Mapping{Region: r, Base: 0x8000, Size: mem.PageSize, Perm: PermRW}); err != nil {
		t.Fatal(err)
	}
	if err := as.MapIO(0x8000, mem.PageSize, d); err == nil {
		t.Fatal("window over mapping accepted")
	}
}

func TestIOAccessSemantics(t *testing.T) {
	as := NewAddrSpace(mem.NewAllocator(16))
	d := &regDev{}
	if err := as.MapIO(0x2000, mem.PageSize, d); err != nil {
		t.Fatal(err)
	}
	if f := as.Store32(0x2008, 0xBEEF); f != nil {
		t.Fatal(f)
	}
	if v, f := as.Load32(0x2008); f != nil || v != 0xBEEF {
		t.Fatalf("v=%#x f=%v", v, f)
	}
	// Misaligned word access to a window faults.
	if _, f := as.Load32(0x2002); f == nil {
		t.Fatal("misaligned IO load accepted")
	}
	if f := as.Store32(0x2001, 1); f == nil {
		t.Fatal("misaligned IO store accepted")
	}
	// Outside the window: normal translation (fault: unmapped).
	if _, f := as.Load32(0x9000); f == nil {
		t.Fatal("unmapped load succeeded")
	}
}

func TestRegionIntrospection(t *testing.T) {
	r := NewRegion(3*mem.PageSize, true)
	if r.Pages() != 3 {
		t.Fatalf("Pages=%d", r.Pages())
	}
	if r.PresentPages() != 0 {
		t.Fatal("fresh region has present pages")
	}
	if r.FrameAt(10*mem.PageSize) != nil {
		t.Fatal("FrameAt beyond region returned frame")
	}
	a := mem.NewAllocator(8)
	f, _ := a.Alloc()
	r.Populate(mem.PageSize, f)
	if r.PresentPages() != 1 {
		t.Fatal("PresentPages after populate")
	}
	if r.Evict(10*mem.PageSize) != nil {
		t.Fatal("Evict beyond region returned frame")
	}
}

func TestPopulateBeyondRegionPanics(t *testing.T) {
	r := NewRegion(mem.PageSize, true)
	a := mem.NewAllocator(2)
	f, _ := a.Alloc()
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	r.Populate(4*mem.PageSize, f)
}

func TestStringers(t *testing.T) {
	if PermRW.String() != "rw-" || PermRWX.String() != "rwx" || Perm(0).String() != "---" {
		t.Fatalf("perm strings: %s %s", PermRW, PermRWX)
	}
	for _, c := range []FaultClass{FaultFatal, FaultSoft, FaultHard} {
		if c.String() == "fault?" {
			t.Fatalf("unnamed class %d", c)
		}
	}
}

func TestByteAccessAndFetch(t *testing.T) {
	as := NewAddrSpace(mem.NewAllocator(16))
	r := NewRegion(mem.PageSize, true)
	if err := as.Map(&Mapping{Region: r, Base: 0x4000, Size: mem.PageSize, Perm: PermRWX}); err != nil {
		t.Fatal(err)
	}
	if err := as.ResolveSoft(0x4000, cpu.Write); err != nil {
		t.Fatal(err)
	}
	if f := as.Store8(0x4005, 0x7E); f != nil {
		t.Fatal(f)
	}
	if b, f := as.Load8(0x4005); f != nil || b != 0x7E {
		t.Fatalf("b=%#x f=%v", b, f)
	}
	// Store a word and fetch it as an instruction.
	as.Store32(0x4010, 0x01020304)
	if v, f := as.Fetch32(0x4010); f != nil || v != 0x01020304 {
		t.Fatalf("fetch v=%#x f=%v", v, f)
	}
	if _, f := as.Fetch32(0x4012); f == nil {
		t.Fatal("misaligned fetch accepted")
	}
	// Store8 to unmapped address faults.
	if f := as.Store8(0xF0000, 1); f == nil {
		t.Fatal("store8 to unmapped accepted")
	}
	if len(as.Mappings()) != 1 {
		t.Fatal("Mappings()")
	}
}

// TestMapRejectsIOOverlap: mappings and device windows stay disjoint
// whichever arrives second, so a page never answers word accesses from the
// device and byte accesses or fetches from memory.
func TestMapRejectsIOOverlap(t *testing.T) {
	const pg = mem.PageSize
	const win, winPages = 0x8000, 2
	overlaps := []struct {
		name        string
		base, pages uint32
	}{
		{"exactly the window", win, winPages},
		{"its first page", win, 1},
		{"its last page", win + pg, 1},
		{"running into it", win - pg, 2},
		{"running out of it", win + pg, 2},
		{"around it", win - pg, winPages + 2},
	}
	for _, c := range overlaps {
		// Window first: Map must refuse, and leave nothing behind.
		as := newAS(t)
		if err := as.MapIO(win, winPages*pg, &regDev{}); err != nil {
			t.Fatal(err)
		}
		r := NewRegion(c.pages*pg, true)
		if err := as.Map(&Mapping{Region: r, Base: c.base, Size: r.Size, Perm: PermRW}); err == nil {
			t.Errorf("mapping %s accepted over an installed window", c.name)
		}
		if len(as.Mappings()) != 0 || len(r.watchers) != 0 {
			t.Errorf("refused mapping %s left %d mappings, %d watchers", c.name, len(as.Mappings()), len(r.watchers))
		}
		// Mapping first: MapIO must refuse.
		as = newAS(t)
		mapZero(t, as, c.base, c.pages*pg, PermRW)
		if err := as.MapIO(win, winPages*pg, &regDev{}); err == nil {
			t.Errorf("window accepted over a mapping of %s", c.name)
		}
		if as.IOWindows() != 0 {
			t.Errorf("refused window left %d windows", as.IOWindows())
		}
	}
	// Neighbours on both sides are fine, in either order.
	as := newAS(t)
	mapZero(t, as, win-pg, pg, PermRW)
	if err := as.MapIO(win, winPages*pg, &regDev{}); err != nil {
		t.Fatal(err)
	}
	mapZero(t, as, win+winPages*pg, pg, PermRW)
}

// TestNoTranslationInsideIOWindow is the invariant the fast paths lean on:
// across random Map / Unmap / MapIO / touch / share traffic no PTE and no
// TLB slot ever names a page inside a device window, the probes built on
// them (DirectWindow, DecodedPageFor, Present) refuse every window page,
// and a word stored to a window page still reaches its device.
func TestNoTranslationInsideIOWindow(t *testing.T) {
	const pg = mem.PageSize
	const arena, arenaPages = 0x10_0000, 24
	windows, maps, touches, shares := 0, 0, 0, 0
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		alloc := mem.NewAllocator(4096)
		as, peer := NewAddrSpaceTLB(alloc, 8), NewAddrSpace(alloc)
		mapZero(t, peer, arena, arenaPages*pg, PermRW)
		devs := 0
		// store retries through soft and copy-on-write faults, as the
		// kernel's fault-and-restart loop would.
		store := func(sp *AddrSpace, va, v uint32) {
			t.Helper()
			for sp.Store32(va, v) != nil {
				switch cl, _ := sp.Classify(va, cpu.Write); cl {
				case FaultSoft:
					if err := sp.ResolveSoft(va, cpu.Write); err != nil {
						t.Fatal(err)
					}
				case FaultCOW:
					if _, err := sp.ResolveCOW(va); err != nil {
						t.Fatal(err)
					}
				default:
					t.Fatalf("seed %d: store to %#x: %v fault", seed, va, cl)
				}
			}
		}
		check := func(op string) {
			t.Helper()
			inWindow := func(vpn uint32) bool { return as.MMIOAt(vpn << mem.PageShift) }
			for vpn := range as.pt {
				if inWindow(vpn) {
					t.Fatalf("seed %d after %s: PTE for vpn %#x lies in a device window", seed, op, vpn)
				}
			}
			for _, e := range as.tlb.Slots {
				if e.Perm != 0 && inWindow(e.VPN) {
					t.Fatalf("seed %d after %s: TLB slot for vpn %#x lies in a device window", seed, op, e.VPN)
				}
			}
			for p := uint32(0); p < arenaPages; p++ {
				va := arena + p*pg
				if !as.MMIOAt(va) {
					continue
				}
				if as.MappingAt(va) != nil {
					t.Fatalf("seed %d after %s: %#x is both mapped and a device page", seed, op, va)
				}
				for _, acc := range []cpu.Access{cpu.Read, cpu.Write, cpu.Exec} {
					if as.Present(va, acc) || as.DirectWindow(va, acc, 16) != nil {
						t.Fatalf("seed %d after %s: device page %#x has a %v translation", seed, op, va, acc)
					}
				}
				if as.DecodedPageFor(va) != nil {
					t.Fatalf("seed %d after %s: device page %#x decodes", seed, op, va)
				}
				w := as.ioAt(va)
				if f := as.Store32(va+8, va); f != nil || w.h.(*regDev).regs[va+8-w.base] != va {
					t.Fatalf("seed %d after %s: store to device page %#x did not reach the device (%v)", seed, op, va, f)
				}
				if _, f := as.Load8(va); f == nil {
					t.Fatalf("seed %d after %s: byte load from device page %#x succeeded", seed, op, va)
				}
			}
		}
		for step := 0; step < 400; step++ {
			base := arena + uint32(rng.Intn(arenaPages))*pg
			pages := uint32(1 + rng.Intn(4))
			switch rng.Intn(6) {
			case 0: // map (refused when it overlaps anything)
				r := NewRegion(pages*pg, true)
				if as.Map(&Mapping{Region: r, Base: base, Size: r.Size, Perm: PermRWX}) == nil {
					maps++
				}
				check("Map")
			case 1: // unmap something
				if ms := as.Mappings(); len(ms) > 0 {
					as.Unmap(ms[rng.Intn(len(ms))])
				}
				check("Unmap")
			case 2: // install a window (refused when it overlaps anything)
				if devs < 4 && as.MapIO(base, pages*pg, &regDev{}) == nil {
					devs++ // windows are forever: leave room for mappings
				}
				check("MapIO")
			case 3: // touch: fills the page table and the TLB where mapped
				if as.MappingAt(base) != nil {
					store(as, base+4*uint32(rng.Intn(pg/4)), uint32(step))
					if _, f := as.Fetch32(base); f != nil {
						t.Fatal(f)
					}
					touches++
				} else if as.Store8(base, 1) == nil && !as.MMIOAt(base) {
					t.Fatalf("seed %d: byte store to unmapped %#x succeeded", seed, base)
				}
				check("touch")
			case 4: // zero-copy share in: installs a PTE outside the fault path
				store(peer, base, uint32(step))
				if ShareCOW(peer, base, as, base) {
					if as.MMIOAt(base) {
						t.Fatalf("seed %d: ShareCOW into device page %#x", seed, base)
					}
					shares++
				}
				check("ShareCOW")
			case 5: // the decode cache probes mapped code like StepN does
				as.DecodedPageFor(base)
				check("DecodedPageFor")
			}
		}
		windows += devs
	}
	if windows < 8 || maps < 8 || touches < 8 || shares < 8 {
		t.Fatalf("%d windows, %d mappings, %d touches, %d shares over all seeds; the walk is vacuous", windows, maps, touches, shares)
	}
}

// ioEvent is one access a logDev saw.
type ioEvent struct {
	write    bool
	off, val uint32
}

// logDev records every register access in order. A read returns a value
// that depends on how many accesses came before it, so reordering,
// dropping or repeating a device access changes what the guest computes.
type logDev struct{ log []ioEvent }

func (d *logDev) IORead32(off uint32) uint32 {
	v := uint32(len(d.log)+1)*0x9E3779B1 ^ off
	d.log = append(d.log, ioEvent{off: off, val: v})
	return v
}

func (d *logDev) IOWrite32(off uint32, v uint32) {
	d.log = append(d.log, ioEvent{write: true, off: off, val: v})
}

// TestMMIOSpaceTierEquivalence runs one driver-shaped guest — register
// loads and stores interleaved with memory traffic, a fusable hot loop, a
// status-polling counted loop, a store that rewrites an instruction already
// executed, an unaligned and a byte access to the window — through every
// interpreter tier at several
// batch sizes. Registers, memory, cycle total, traps, AS.Faults and the
// device's access log (order, offset, value) must match the Step loop on a
// space with fast paths off; the decode and threaded tiers must really
// have run, since a space with a window used to be denied both.
func TestMMIOSpaceTierEquivalence(t *testing.T) {
	const (
		pg      = mem.PageSize
		code    = 0x1_0000
		data    = 0x4_0000
		io      = 0xD_0000
		passes  = 12
		polls   = 5
		hotLim  = 4000
		regStat = 0x10
		regCmd  = 0x04
		regAux  = 0x08
	)
	// R4 = window, R5 = data page, R6 = pass counter, R2 = running digest;
	// R0, R1 and R3 are scratch.
	b := prog.New(code)
	b.Movi(4, io).Movi(5, data).Movi(6, 0).Movi(2, 0)
	b.Label("pass").
		Ld(1, 4, regStat). // device read
		St(5, 0, 1).       // memory store
		Add(2, 2, 1).
		St(4, regCmd, 2). // device write
		Ld(3, 5, 0).
		Xor(2, 2, 3).
		Stb(5, 9, 6).Ldb(3, 5, 9). // byte traffic beside the words
		Add(2, 2, 3)
	// The hot loop: fuses into one accumulator block.
	b.Movi(1, 0).Movi(3, 7).Movi(0, hotLim).
		Label("hot").Add(1, 1, 3).Blt(1, 0, "hot").
		St(5, 4, 1)
	// The polling loop: the interpreter folds it into its counted-loop
	// executor, and each pass's register read must still reach the device,
	// in order, between the pass's memory accesses.
	b.Movi(3, 0).Movi(0, polls).
		Label("poll").Ld(1, 4, regStat).St(5, 16, 1).Ld(1, 5, 16).Add(2, 2, 1).
		Addi(3, 3, 1).Blt(3, 0, "poll")
	// Self-modification: "patch" runs once per pass, and each pass ends by
	// rewriting its immediate, so the next pass must see the new word.
	b.Label("patch").Movi(3, 1).
		St(4, regAux, 3).
		Movi(1, b.Addr("patch")+4).Addi(3, 6, 0x50).St(1, 0, 3).
		Addi(6, 6, 1).Movi(0, passes).
		Blt(6, 0, "pass").
		Ld(1, 4, regStat+2). // unaligned register access: faults
		Ldb(1, 4, 3).        // byte access to the window: faults
		Stb(4, 1, 6).        // and a byte store
		St(4, regCmd, 2).
		Halt()
	img := b.MustAssemble()

	type outcome struct {
		regs   cpu.Regs
		mem    []byte
		cycles uint64
		traps  []cpu.Trap
		faults uint64
		log    []ioEvent
		exec   cpu.ExecStats
	}
	run := func(tier string, budget uint64) outcome {
		as := NewAddrSpace(mem.NewAllocator(64))
		dev := &logDev{}
		creg, _ := mapZero(t, as, code, 2*pg, PermRWX)
		dreg, _ := mapZero(t, as, data, pg, PermRW)
		if err := as.MapIO(io, pg, dev); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < len(img); i += 4 {
			touchStore32(t, as, code+uint32(i), uint32(img[i])|uint32(img[i+1])<<8|uint32(img[i+2])<<16|uint32(img[i+3])<<24)
		}
		as.FlushRange(code, 2*pg) // the guest faults its own translations in
		as.Faults = 0
		step := func(r *cpu.Regs) (uint64, cpu.Trap) {
			c, _, tr := cpu.StepN(r, as, budget)
			return c, tr
		}
		switch tier {
		case "step/nofast":
			as.SetFastPaths(false)
			fallthrough
		case "step":
			step = func(r *cpu.Regs) (cycles uint64, tr cpu.Trap) {
				for cycles < budget && tr.Kind == cpu.TrapNone {
					var c uint64
					c, tr = cpu.Step(r, as)
					cycles += c
				}
				return cycles, tr
			}
		case "stepn/nofast":
			as.SetFastPaths(false)
		case "decode":
			as.SetThreadedCode(false)
		case "threaded":
		}
		var o outcome
		o.regs.PC = code
		for {
			c, tr := step(&o.regs)
			o.cycles += c
			if tr.Kind == cpu.TrapNone {
				continue
			}
			if tr.Kind == cpu.TrapFault {
				if cl, _ := as.Classify(tr.Fault.VA, tr.Fault.Access); cl == FaultSoft {
					if err := as.ResolveSoft(tr.Fault.VA, tr.Fault.Access); err != nil {
						t.Fatal(err)
					}
					continue
				}
				o.regs.PC += cpu.InstrSize // a fatal fault: note it and move on
			}
			o.traps = append(o.traps, tr)
			if tr.Kind == cpu.TrapHalt {
				break
			}
			if len(o.traps) > 16 {
				t.Fatalf("%s/%d: runaway guest: %+v", tier, budget, o.traps)
			}
		}
		for _, r := range []*Region{creg, dreg} {
			for _, f := range r.Frames() {
				if f != nil {
					o.mem = append(o.mem, f.Data...)
				}
			}
		}
		o.faults, o.log, o.exec = as.Faults, dev.log, *as.ExecStats()
		return o
	}

	for _, budget := range []uint64{1 << 40, 1000, 37, 1} {
		want := run("step/nofast", budget)
		if n := len(want.log); n != (3+polls)*passes+1 {
			t.Fatalf("budget %d: reference run made %d device accesses, want %d", budget, n, (3+polls)*passes+1)
		}
		if len(want.traps) != 4 || want.traps[3].Kind != cpu.TrapHalt {
			t.Fatalf("budget %d: reference traps %+v, want three window faults and a halt", budget, want.traps)
		}
		if last := want.log[len(want.log)-2]; !last.write || last.off != regAux || last.val != 0x50+passes-2 {
			t.Fatalf("budget %d: the patched instruction last wrote %+v", budget, last)
		}
		for _, tier := range []string{"step", "stepn/nofast", "decode", "threaded"} {
			got := run(tier, budget)
			switch {
			case got.regs != want.regs:
				t.Errorf("%s/%d: registers %+v, want %+v", tier, budget, got.regs, want.regs)
			case !bytes.Equal(got.mem, want.mem):
				t.Errorf("%s/%d: memory differs", tier, budget)
			case got.cycles != want.cycles:
				t.Errorf("%s/%d: %d cycles, want %d", tier, budget, got.cycles, want.cycles)
			case !reflect.DeepEqual(got.traps, want.traps):
				t.Errorf("%s/%d: traps %+v, want %+v", tier, budget, got.traps, want.traps)
			case got.faults != want.faults:
				t.Errorf("%s/%d: AS.Faults=%d, want %d", tier, budget, got.faults, want.faults)
			case !reflect.DeepEqual(got.log, want.log):
				t.Errorf("%s/%d: device log differs:\n got %+v\nwant %+v", tier, budget, got.log, want.log)
			}
			if tier == "decode" && (got.exec.PagesDecoded == 0 || got.exec.BlocksBuilt != 0) {
				t.Errorf("decode/%d: exec stats %+v: the decode cache did not carry the run", budget, got.exec)
			}
			if tier == "threaded" && budget > 1000 && (got.exec.BlockHits == 0 || got.exec.LoopPasses == 0) {
				t.Errorf("threaded/%d: exec stats %+v: no fused block or folded loop ran in a space with a device window", budget, got.exec)
			}
		}
	}
}

// repointDev replaces the frame behind the first page of r on every second
// register read, as a NIC does when it breaks a copy-on-write share before
// DMAing into the page. The new frame is filled with the read count.
type repointDev struct {
	as    *AddrSpace
	r     *Region
	reads uint32
}

func (d *repointDev) IORead32(off uint32) uint32 {
	d.reads++
	if d.reads%2 == 0 {
		f, err := d.as.Allocator().Alloc()
		if err != nil {
			panic(err)
		}
		for i := range f.Data {
			f.Data[i] = byte(d.reads)
		}
		if old := d.r.Repoint(0, f); old != nil {
			d.as.Allocator().Free(old)
		}
	}
	return d.reads
}

func (d *repointDev) IOWrite32(off uint32, v uint32) {}

// TestLoopWindowDroppedAfterDeviceAccess: a folded loop reads a page, then
// a device register whose handler swaps the page's frame, then the page
// again. The interpreter's read window from the first read must not
// survive the device access: every tier reads what the Step loop reads.
func TestLoopWindowDroppedAfterDeviceAccess(t *testing.T) {
	const (
		code = 0x1_0000
		data = 0x4_0000
		io   = 0xD_0000
	)
	b := prog.New(code)
	b.Movi(4, io).Movi(5, data).Movi(6, 0).Movi(0, 40).
		Label("loop").
		Ldb(3, 5, 7).Ld(1, 4, 0).Ldb(1, 5, 9).Add(2, 2, 1).Add(2, 2, 3).
		Addi(6, 6, 1).Blt(6, 0, "loop").
		Halt()
	img := b.MustAssemble()
	run := func(tier string) (cpu.Regs, uint64, cpu.ExecStats) {
		as := NewAddrSpace(mem.NewAllocator(256))
		mapZero(t, as, code, mem.PageSize, PermRWX)
		dreg, _ := mapZero(t, as, data, mem.PageSize, PermRW)
		if err := as.MapIO(io, mem.PageSize, &repointDev{as: as, r: dreg}); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < len(img); i += 4 {
			touchStore32(t, as, code+uint32(i), uint32(img[i])|uint32(img[i+1])<<8|uint32(img[i+2])<<16|uint32(img[i+3])<<24)
		}
		touchStore32(t, as, data, 0)
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
			if tr.Kind == cpu.TrapHalt {
				return r, cycles, *as.ExecStats()
			}
			if tr.Kind != cpu.TrapNone {
				t.Fatalf("%s: trap %+v", tier, tr)
			}
		}
	}
	wantRegs, wantCycles, _ := run("step")
	gotRegs, gotCycles, es := run("threaded")
	if es.LoopPasses == 0 {
		t.Fatalf("the loop was not folded: %+v", es)
	}
	if gotRegs != wantRegs || gotCycles != wantCycles {
		t.Fatalf("folded loop read %+v in %d cycles, Step loop %+v in %d", gotRegs, gotCycles, wantRegs, wantCycles)
	}
}
