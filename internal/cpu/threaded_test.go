package cpu

import (
	"math/rand"
	"testing"
)

// emitAt writes one encoded instruction into m at pc.
func emitAt(m *fakeMem, pc uint32, in Instr) {
	w0, imm := in.Encode()
	m.Store32(pc, w0)
	m.Store32(pc+4, imm)
}

// TestAccLoopEquivalence drives every two-instruction accumulator loop
// `acc = acc OP src; bCC acc, lim` (ALU op × conditional branch) through
// StepN and the reference loop with randomized budgets, and checks which
// tier ran it: the addi rows are bare counters and run as counted loops,
// every other op builds no block and runs on the decode cache.
func TestAccLoopEquivalence(t *testing.T) {
	ops := []Opcode{OpAdd, OpSub, OpAnd, OpOr, OpXor, OpShl, OpShr, OpMul, OpAddi}
	brs := []Opcode{OpBeq, OpBne, OpBlt, OpBge}
	rng := rand.New(rand.NewSource(7))
	for _, op := range ops {
		for _, br := range brs {
			for trial := 0; trial < 8; trial++ {
				m := newFakeMem(2)
				// r1 = acc, r2 = src, r3 = lim. Loop at 24, entered by a
				// jump so that the first pass already runs from its entry.
				emitAt(m, 0, Instr{Op: OpMovi, Rd: 1, Imm: rng.Uint32() % 64})
				emitAt(m, 8, Instr{Op: OpMovi, Rd: 3, Imm: rng.Uint32() % 4096})
				emitAt(m, 16, Instr{Op: OpJmp, Imm: 24})
				in := Instr{Op: op, Rd: 1, Rs: 1, Rt: 2, Imm: 1 + rng.Uint32()%4}
				emitAt(m, 24, in)
				emitAt(m, 32, Instr{Op: br, Rs: 1, Rt: 3, Imm: 24})
				emitAt(m, 40, Instr{Op: OpHalt})
				m.resetGens()

				ref := m.clone()
				var rF, rR Regs
				rF.R[2], rR.R[2] = 3, 3 // src register for reg-reg ops
				for round := 0; round < 6; round++ {
					budget := uint64(1 + rng.Intn(3000))
					fc, fr, ft := StepN(&rF, m, budget)
					rc, rr, rt := stepRef(&rR, ref, budget)
					if fc != rc || fr != rr || ft != rt || rF != rR {
						t.Fatalf("%v/%v trial %d round %d: fast=(%d,%d,%+v) %+v ref=(%d,%d,%+v) %+v",
							op, br, trial, round, fc, fr, ft, rF, rc, rr, rt, rR)
					}
					if ft.Kind != TrapNone {
						break
					}
				}
				b := m.DecodedPageFor(24).blocks[24>>2]
				if loop := op == OpAddi; b == nil || loop != (b != noBlock) || loop != b.loop || loop != (m.exec.LoopPasses != 0) {
					t.Errorf("%v/%v trial %d: loop block %+v, %+v: want a counted loop iff addi", op, br, trial, b, m.exec)
				}
			}
		}
	}
}

// TestAccLoopSpecialized pins that the canonical bare counter
// `addi x,x,1; blt x,y` actually takes the counted-loop path (block built
// as a loop and hit once per pass, fast-forwarded passes included), so a
// regression in specializeLoop shows up as a test failure, not a silent
// performance cliff.
func TestAccLoopSpecialized(t *testing.T) {
	m := newFakeMem(2)
	emitAt(m, 0, Instr{Op: OpMovi, Rd: 6, Imm: 0})
	emitAt(m, 8, Instr{Op: OpMovi, Rd: 5, Imm: 1000})
	emitAt(m, 16, Instr{Op: OpAddi, Rd: 6, Rs: 6, Imm: 1})
	emitAt(m, 24, Instr{Op: OpBlt, Rs: 6, Rt: 5, Imm: 16})
	emitAt(m, 32, Instr{Op: OpHalt})
	m.resetGens()

	var r Regs
	_, retired, trap := StepN(&r, m, 1<<40)
	if trap.Kind != TrapHalt {
		t.Fatalf("trap = %+v, want halt", trap)
	}
	if retired != 2+2*1000 {
		t.Fatalf("retired = %d, want %d", retired, 2+2*1000)
	}
	dp := m.DecodedPageFor(16)
	b := dp.blocks[(16>>2)&(decSlots-1)]
	if b == nil || b == noBlock || !b.loop {
		t.Fatalf("bare counter not built as a counted loop: %+v", b)
	}
	// The first pass runs inside the straight-line block entered at 0;
	// every later pass is one counted-loop hit.
	if m.exec.BlockHits < 1000 || m.exec.LoopPasses < 999 {
		t.Fatalf("exec = %+v, want >= 1000 block hits and >= 999 loop passes (one per pass)", m.exec)
	}
}

// TestBlockBudgetTail: when the remaining budget cannot cover a block's
// worst case, the tail must single-step with exact charge/commit
// sequencing. Sweep every small budget against the reference.
func TestBlockBudgetTail(t *testing.T) {
	build := func() *fakeMem {
		m := newFakeMem(2)
		pc := uint32(0)
		for i := 0; i < 6; i++ { // straight line: 6 ALU + ld/st mix
			emitAt(m, pc, Instr{Op: OpAddi, Rd: 1, Rs: 1, Imm: 1})
			pc += InstrSize
		}
		emitAt(m, pc, Instr{Op: OpSt, Rs: 0, Rt: 1, Imm: 0x1000})
		pc += InstrSize
		emitAt(m, pc, Instr{Op: OpLd, Rd: 2, Rs: 0, Imm: 0x1000})
		pc += InstrSize
		emitAt(m, pc, Instr{Op: OpHalt})
		m.resetGens()
		return m
	}
	for budget := uint64(1); budget <= 40; budget++ {
		mF, mR := build(), build()
		var rF, rR Regs
		for {
			fc, fr, ft := StepN(&rF, mF, budget)
			rc, rr, rt := stepRef(&rR, mR, budget)
			if fc != rc || fr != rr || ft != rt || rF != rR {
				t.Fatalf("budget %d: fast=(%d,%d,%+v) ref=(%d,%d,%+v)", budget, fc, fr, ft, rc, rr, rt)
			}
			if ft.Kind != TrapNone {
				break
			}
		}
	}
}

// TestBlockDMAInvalidation: a direct write to a code page that bypasses
// the CPU store path (DMA, kernel copies) and bumps the store generation
// must invalidate fused blocks before their next execution.
func TestBlockDMAInvalidation(t *testing.T) {
	m := newFakeMem(2)
	emitAt(m, 0, Instr{Op: OpMovi, Rd: 1, Imm: 7})
	emitAt(m, 8, Instr{Op: OpMovi, Rd: 2, Imm: 1})
	emitAt(m, 16, Instr{Op: OpMovi, Rd: 3, Imm: 2})
	emitAt(m, 24, Instr{Op: OpHalt})
	m.resetGens()

	var r Regs
	if _, _, trap := StepN(&r, m, 1<<20); trap.Kind != TrapHalt {
		t.Fatalf("first run: trap = %+v", trap)
	}
	if r.R[1] != 7 {
		t.Fatalf("first run: r1 = %d", r.R[1])
	}

	// DMA-style overwrite: mutate the bytes directly and bump the page's
	// generation, exactly as mem.Frame.Bump does for device writes.
	w0, imm := Instr{Op: OpMovi, Rd: 1, Imm: 9}.Encode()
	m.data[0], m.data[1], m.data[2], m.data[3] = byte(w0), byte(w0>>8), byte(w0>>16), byte(w0>>24)
	m.data[4], m.data[5], m.data[6], m.data[7] = byte(imm), byte(imm>>8), byte(imm>>16), byte(imm>>24)
	m.frames[0].Gen++

	r = Regs{}
	if _, _, trap := StepN(&r, m, 1<<20); trap.Kind != TrapHalt {
		t.Fatalf("second run: trap = %+v", trap)
	}
	if r.R[1] != 9 {
		t.Fatalf("r1 = %d after DMA overwrite: stale fused block executed", r.R[1])
	}
	if m.exec.BlockInvalidations == 0 {
		t.Fatal("BlockInvalidations = 0, want > 0")
	}
}

// TestStepNDisabledPathNoAllocs: with the threaded-code tier off, StepN
// must not allocate — the decode-cache path is allocation-free and
// disabling blocks must not regress that.
func TestStepNDisabledPathNoAllocs(t *testing.T) {
	m := newFakeMem(2)
	m.noBlocks = true
	emitAt(m, 0, Instr{Op: OpMovi, Rd: 6, Imm: 0})
	emitAt(m, 8, Instr{Op: OpMovi, Rd: 5, Imm: 100})
	emitAt(m, 16, Instr{Op: OpAddi, Rd: 6, Rs: 6, Imm: 1})
	emitAt(m, 24, Instr{Op: OpBlt, Rs: 6, Rt: 5, Imm: 16})
	emitAt(m, 32, Instr{Op: OpJmp, Imm: 0})
	m.resetGens()
	// Warm the decode cache outside the measured region.
	var r Regs
	StepN(&r, m, 1000)

	allocs := testing.AllocsPerRun(10, func() {
		r = Regs{}
		if _, _, trap := StepN(&r, m, 2000); trap.Kind != TrapNone {
			t.Fatalf("trap = %+v", trap)
		}
	})
	if allocs != 0 {
		t.Fatalf("StepN with threaded code disabled allocated %v times per run", allocs)
	}
	if m.exec.BlockHits != 0 || m.exec.BlocksBuilt != 0 {
		t.Fatalf("blocks ran while disabled: %+v", m.exec)
	}
}
