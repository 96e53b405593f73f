package cpu

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/mem"
)

// Counted-loop executor (runLoop) equivalence. Programs are one self-loop
// at PC 0 on a fakeMem of loopPages pages — page 0 code, the rest data —
// entered with a chosen register file, and run batch by batch through
// StepN and the Step reference with the fast side's TLB flushed between
// some batches, so the inline hit, the miss and the read-window refresh
// paths all run.

const (
	loopPages    = 4
	loopData     = mem.PageSize // first data page
	loopCycleCap = 60_000       // cycles per run; endless loops stop here
)

// loopShape is a counted loop: body, then `addi x, x, k`, then `br` back to
// PC 0 comparing x with y (x on the left unless xRight).
type loopShape struct {
	body   []Instr
	x, y   int
	k      uint32
	br     Opcode
	xRight bool
}

// emit writes the loop and a trailing halt into m's code page.
func (s loopShape) emit(m *fakeMem) {
	code := append(append([]Instr(nil), s.body...), Instr{Op: OpAddi, Rd: s.x, Rs: s.x, Imm: s.k})
	br := Instr{Op: s.br, Rs: s.x, Rt: s.y}
	if s.xRight {
		br.Rs, br.Rt = s.y, s.x
	}
	code = append(code, br, Instr{Op: OpHalt})
	for i, in := range code {
		emitAt(m, uint32(i)*InstrSize, in)
	}
	m.resetGens()
}

// maxCyc is the shape's worst-case pass cost: the fused block's maxCyc.
func (s loopShape) maxCyc() uint64 {
	c := uint64(CycInstr + CycInstr + CycBr) // step, taken branch
	for _, in := range s.body {
		c += uint64(instrCost(in.Op))
	}
	return c
}

// runLoopEquiv runs proto from regs through StepN and the reference loop
// with the same batch budget until a trap or loopCycleCap, failing on the
// first divergence, and returns the fast side's memory.
func runLoopEquiv(t *testing.T, name string, proto *fakeMem, regs Regs, budget uint64, rng *rand.Rand) *fakeMem {
	t.Helper()
	fast, ref := proto.clone(), proto.clone()
	rF, rR := regs, regs
	for total := uint64(0); total < loopCycleCap; {
		if rng.Intn(3) == 0 {
			fast.flushTLB()
		}
		fc, fr, ft := StepN(&rF, fast, budget)
		rc, rr, rt := stepRef(&rR, ref, budget)
		if fc != rc || fr != rr || ft != rt || rF != rR {
			t.Fatalf("%s budget %d after %d cycles: fast=(%d,%d,%+v) %+v\nref=(%d,%d,%+v) %+v",
				name, budget, total, fc, fr, ft, rF, rc, rr, rt, rR)
		}
		total += fc
		if ft.Kind != TrapNone {
			break
		}
	}
	if !bytes.Equal(fast.data, ref.data) {
		t.Fatalf("%s budget %d: memory diverges", name, budget)
	}
	return fast
}

// TestCountedLoopEquivalence drives every counted-loop shape the fold must
// get right through StepN and the reference at budgets that single-step
// (1), split passes (37), refuse even one pass (maxCyc-1) and run to the
// end (2^40), with the TLB granting stores and — as armed dirty tracking
// leaves it — not granting them.
func TestCountedLoopEquivalence(t *testing.T) {
	const (
		page2 = loopData + mem.PageSize
		page3 = loopData + 2*mem.PageSize
	)
	cases := []struct {
		name  string
		shape loopShape
		regs  map[int]uint32
		fault bool // the run ends in a fault, possibly before the fold engages
		stale bool // every pass stores into the code page and must bail
	}{
		{"memtest sweep walks off two pages", loopShape{
			body: []Instr{{Op: OpLdb, Rd: 3, Rs: 6}},
			x:    6, y: 5, k: 1, br: OpBlt,
		}, map[int]uint32{6: loopData + 0xF80, 5: page3 + 0x100}, false, false},
		{"gcc word sweep", loopShape{
			body: []Instr{{Op: OpLd, Rd: 1, Rs: 4}, {Op: OpMul, Rd: 3, Rs: 3, Rt: 1}, {Op: OpAdd, Rd: 3, Rs: 3, Rt: 1}},
			x:    4, y: 5, k: 4, br: OpBlt,
		}, map[int]uint32{4: loopData, 5: page3}, false, false},
		{"x on the right, negative step", loopShape{
			body: []Instr{{Op: OpAdd, Rd: 1, Rs: 1, Rt: 2}, {Op: OpStb, Rs: 2, Rt: 1, Imm: loopData}},
			x:    2, y: 3, k: ^uint32(0), br: OpBlt, xRight: true,
		}, map[int]uint32{2: 900, 3: 100}, false, false},
		{"wrapping step, bne", loopShape{
			body: []Instr{{Op: OpXor, Rd: 0, Rs: 0, Rt: 1}, {Op: OpLdb, Rd: 4, Rs: 5, Imm: 3}},
			x:    1, y: 7, k: 0x10, br: OpBne,
		}, map[int]uint32{1: 0xFFFF_FF00, 7: 0x100, 5: page2}, false, false},
		{"x on the right, bge", loopShape{
			body: []Instr{{Op: OpLd, Rd: 0, Rs: 2, Imm: loopData}, {Op: OpSub, Rd: 3, Rs: 3, Rt: 0}},
			x:    2, y: 4, k: 4, br: OpBge, xRight: true,
		}, map[int]uint32{2: 0, 4: 0x800}, false, false},
		{"loads and stores on one page", loopShape{
			body: []Instr{
				{Op: OpLdb, Rd: 3, Rs: 6}, {Op: OpStb, Rs: 6, Rt: 3, Imm: 0x800},
				{Op: OpLd, Rd: 1, Rs: 5}, {Op: OpAddi, Rd: 1, Rs: 1, Imm: 3}, {Op: OpSt, Rs: 5, Rt: 1, Imm: 4},
			},
			x: 6, y: 4, k: 1, br: OpBlt,
		}, map[int]uint32{6: loopData, 4: loopData + 0x7FF, 5: loopData + 0xF00}, false, false},
		{"loads and stores on different pages", loopShape{
			body: []Instr{{Op: OpLd, Rd: 1, Rs: 6}, {Op: OpSt, Rs: 6, Rt: 1, Imm: mem.PageSize}, {Op: OpAdd, Rd: 2, Rs: 2, Rt: 1}},
			x:    6, y: 4, k: 4, br: OpBlt,
		}, map[int]uint32{6: loopData, 4: page2}, false, false},
		{"store into the loop's own code page", loopShape{
			body: []Instr{{Op: OpAdd, Rd: 1, Rs: 1, Rt: 6}, {Op: OpSt, Rs: 5, Rt: 6, Imm: 0xF00}, {Op: OpXor, Rd: 2, Rs: 2, Rt: 1}},
			x:    6, y: 4, k: 1, br: OpBlt,
		}, map[int]uint32{6: 0, 4: 200, 5: 0}, false, true},
		{"loop rewrites its own immediate", loopShape{
			// Each pass patches the first instruction's immediate to x.
			body: []Instr{{Op: OpAddi, Rd: 1, Rs: 1, Imm: 5}, {Op: OpSt, Rs: 5, Rt: 6, Imm: 4}, {Op: OpAdd, Rd: 2, Rs: 2, Rt: 1}},
			x:    6, y: 4, k: 3, br: OpBlt,
		}, map[int]uint32{6: 0, 4: 300, 5: 0}, false, true},
		{"loop byte-patches its own immediate", loopShape{
			body: []Instr{{Op: OpXor, Rd: 2, Rs: 2, Rt: 1}, {Op: OpAddi, Rd: 1, Rs: 1, Imm: 0x100}, {Op: OpStb, Rs: 5, Rt: 6, Imm: 12}},
			x:    6, y: 4, k: 1, br: OpBlt,
		}, map[int]uint32{6: 1, 4: 300, 5: 0}, false, true},
		{"unaligned ld faults on pass 7", loopShape{
			// r2 = r6>>4 is 0 for passes 1-6 and 1 on pass 7.
			body: []Instr{{Op: OpShr, Rd: 2, Rs: 6, Rt: 5}, {Op: OpLd, Rd: 1, Rs: 2, Imm: loopData}, {Op: OpAdd, Rd: 3, Rs: 3, Rt: 1}},
			x:    6, y: 4, k: 1, br: OpBlt,
		}, map[int]uint32{6: 10, 5: 4, 4: 1000}, true, false},
		{"sweep runs off the end of memory", loopShape{
			body: []Instr{{Op: OpLdb, Rd: 3, Rs: 6}, {Op: OpAdd, Rd: 2, Rs: 2, Rt: 3}},
			x:    6, y: 5, k: 1, br: OpBlt,
		}, map[int]uint32{6: loopPages*mem.PageSize - 300, 5: 0xFFFF_0000}, true, false},
		{"body rewrites the limit, beq", loopShape{
			body: []Instr{{Op: OpAddi, Rd: 3, Rs: 3, Imm: 2}, {Op: OpLdb, Rd: 0, Rs: 1, Imm: loopData}},
			x:    1, y: 3, k: 2, br: OpBeq,
		}, map[int]uint32{1: 0, 3: 0}, true, false},
	}
	rng := rand.New(rand.NewSource(25))
	for _, c := range cases {
		for _, ro := range []bool{false, true} {
			name := fmt.Sprintf("%s/roTLB=%v", c.name, ro)
			proto := newFakeMem(loopPages)
			proto.roTLB = ro
			c.shape.emit(proto)
			var regs Regs
			for r, v := range c.regs {
				regs.R[r] = v
			}
			for _, budget := range []uint64{1, 37, c.shape.maxCyc() - 1, 1 << 40} {
				fast := runLoopEquiv(t, name, proto, regs, budget, rng)
				if budget == 1<<40 && !c.fault && fast.exec.LoopPasses == 0 {
					t.Errorf("%s: the counted-loop executor never ran: %+v", name, fast.exec)
				}
				if budget == 1<<40 && c.stale && fast.exec.StaleResets == 0 {
					t.Errorf("%s: stores into the running code page never bailed: %+v", name, fast.exec)
				}
				if fast.exec.LoopPasses > fast.exec.BlockHits {
					t.Errorf("%s: %d loop passes but only %d block hits", name, fast.exec.LoopPasses, fast.exec.BlockHits)
				}
			}
		}
	}
}

// TestCountedLoopFoldConditions pins which blocks runLoop takes: the
// induction register must be written by the trailing addi alone and
// compared by a conditional branch back to the entry. The bare counter is
// built only because it is a loop; any other two-instruction run builds no
// block. A loop that folds must then run every pass as one block hit.
func TestCountedLoopFoldConditions(t *testing.T) {
	ldb := Instr{Op: OpLdb, Rd: 3, Rs: 6}
	cases := []struct {
		name string
		code []Instr
		fold bool
	}{
		{"memtest shape", []Instr{ldb, {Op: OpAddi, Rd: 6, Rs: 6, Imm: 1}, {Op: OpBlt, Rs: 6, Rt: 5}}, true},
		{"x on the right", []Instr{ldb, {Op: OpAddi, Rd: 6, Rs: 6, Imm: 1}, {Op: OpBge, Rs: 5, Rt: 6}}, true},
		{"bare counter", []Instr{{Op: OpAddi, Rd: 6, Rs: 6, Imm: 1}, {Op: OpBlt, Rs: 6, Rt: 5}}, true},
		{"bare counter, x on the right", []Instr{{Op: OpAddi, Rd: 6, Rs: 6, Imm: 1}, {Op: OpBge, Rs: 5, Rt: 6}}, true},
		{"two-instruction accumulator", []Instr{{Op: OpAdd, Rd: 6, Rs: 6, Rt: 1}, {Op: OpBlt, Rs: 6, Rt: 5}}, false},
		{"bare counter jumps back", []Instr{{Op: OpAddi, Rd: 6, Rs: 6, Imm: 1}, {Op: OpJmp}}, false},
		{"body also writes x", []Instr{{Op: OpAdd, Rd: 6, Rs: 6, Rt: 1}, {Op: OpAddi, Rd: 6, Rs: 6, Imm: 1}, {Op: OpBlt, Rs: 6, Rt: 5}}, false},
		{"body loads into x", []Instr{{Op: OpLdb, Rd: 6, Rs: 6}, {Op: OpAddi, Rd: 6, Rs: 6, Imm: 1}, {Op: OpBlt, Rs: 6, Rt: 5}}, false},
		{"step is not last", []Instr{{Op: OpAddi, Rd: 6, Rs: 6, Imm: 1}, ldb, {Op: OpBlt, Rs: 6, Rt: 5}}, false},
		{"step from another register", []Instr{ldb, {Op: OpAddi, Rd: 6, Rs: 2, Imm: 1}, {Op: OpBlt, Rs: 6, Rt: 5}}, false},
		{"branch compares another register", []Instr{ldb, {Op: OpAddi, Rd: 6, Rs: 6, Imm: 1}, {Op: OpBlt, Rs: 3, Rt: 5}}, false},
		{"branch leaves the block", []Instr{ldb, {Op: OpAddi, Rd: 6, Rs: 6, Imm: 1}, {Op: OpBlt, Rs: 6, Rt: 5, Imm: 0x100}}, false},
		{"jump back", []Instr{ldb, {Op: OpAddi, Rd: 6, Rs: 6, Imm: 1}, {Op: OpJmp}}, false},
	}
	for _, c := range cases {
		m := newFakeMem(2)
		for i, in := range append(c.code, Instr{Op: OpHalt}) {
			emitAt(m, uint32(i)*InstrSize, in)
		}
		m.resetGens()
		b := m.DecodedPageFor(0).buildBlock(m, &m.exec, 0, 0)
		if b == noBlock {
			if c.fold {
				t.Errorf("%s: no block built", c.name)
			}
			continue
		}
		if b.loop != c.fold {
			t.Errorf("%s: folded = %v, want %v", c.name, b.loop, c.fold)
		}
		if !c.fold {
			continue
		}
		r := Regs{R: [NumRegs]uint32{5: 1000}}
		_, retired, trap := StepN(&r, m, 1<<40)
		if trap.Kind != TrapHalt || r.R[6] < 1000 {
			t.Fatalf("%s: trap %+v with r6 = %d, want halt past 1000", c.name, trap, r.R[6])
		}
		if e := m.exec; e.BlockHits != e.LoopPasses || retired != e.LoopPasses*uint64(len(c.code)) {
			t.Errorf("%s: %d retired, %+v: want one block hit per pass", c.name, retired, e)
		}
	}
}

// genLoop emits a random counted loop into m and returns the entry
// register file: zero (the bare counter) to five random body instructions
// (ALU, loads and stores to the data pages and now and then the code page)
// that never write x, a step and a compare drawn from every sign and
// branch. With idem the body only loads from x-based addresses into
// registers other than y, with x on a data page: a loop runLoop may
// fast-forward.
func genLoop(m *fakeMem, rng *rand.Rand, idem bool) (loopShape, Regs) {
	var s loopShape
	s.x = rng.Intn(NumRegs)
	s.y = rng.Intn(NumRegs)
	s.k = []uint32{1, 2, 4, 8, ^uint32(0), ^uint32(3), 0x10, 0x1000, rng.Uint32()}[rng.Intn(9)]
	s.br = []Opcode{OpBeq, OpBne, OpBlt, OpBge}[rng.Intn(4)]
	s.xRight = rng.Intn(2) == 0
	other := func() int { // any register but x
		r := rng.Intn(NumRegs - 1)
		if r >= s.x {
			r++
		}
		return r
	}
	for n := rng.Intn(6); len(s.body) < n; {
		in := Instr{Rd: other(), Rs: rng.Intn(NumRegs), Rt: rng.Intn(NumRegs), Imm: uint32(rng.Intn(4 * mem.PageSize))}
		switch p := rng.Intn(10); {
		case idem:
			if in.Rd == s.y {
				continue
			}
			in.Op, in.Rs, in.Imm = []Opcode{OpLd, OpLdb}[rng.Intn(2)], s.x, in.Imm%64
			if in.Op == OpLd {
				in.Imm &^= 3
			}
		case p < 4:
			in.Op = []Opcode{OpMovi, OpMov, OpAdd, OpSub, OpAnd, OpOr, OpXor, OpShl, OpShr, OpMul, OpAddi}[rng.Intn(11)]
			in.Imm %= 64
		case p < 9:
			in.Op = []Opcode{OpLd, OpSt, OpLdb, OpStb}[rng.Intn(4)]
			if in.Op == OpLd || in.Op == OpSt {
				in.Imm &^= 3 // mostly aligned: misalignment comes from the registers
			}
		default: // a store into the code page, past the loop
			in.Op = OpSt
			in.Imm = 0xF00
		}
		s.body = append(s.body, in)
	}
	s.emit(m)
	var regs Regs
	for i := range regs.R {
		regs.R[i] = []uint32{0, uint32(rng.Intn(64)), loopData + uint32(rng.Intn(mem.PageSize)), rng.Uint32()}[rng.Intn(4)]
	}
	if idem {
		regs.R[s.x] = loopData + uint32(rng.Intn(3*mem.PageSize))
	}
	// Make the loop run a while: place y a random number of steps from x.
	regs.R[s.y] = regs.R[s.x] + s.k*uint32(1+rng.Intn(3000))
	return s, regs
}

// FuzzStepNLoops: random counted loops — every step sign, compare side,
// branch and body mix the fold admits — must run identically through
// StepN and the Step reference at any budget, with TLB flushes between
// batches and with a TLB that refuses stores. A third of the seeds draw
// loops the fast-forward may take. Budget 0 stands for one large batch,
// capped so that a loop that never exits (a body may write y) still ends.
func FuzzStepNLoops(f *testing.F) {
	for seed := int64(0); seed < 16; seed++ {
		f.Add(seed, uint64(seed*37), seed%3 == 0)
	}
	f.Add(int64(99), uint64(0), false)
	f.Fuzz(func(t *testing.T, seed int64, budget uint64, ro bool) {
		rng := rand.New(rand.NewSource(seed))
		proto := newFakeMem(loopPages)
		proto.roTLB = ro
		_, regs := genLoop(proto, rng, seed%3 == 0)
		if budget == 0 {
			budget = 1 << 22
		} else {
			budget = 1 + budget%4096
		}
		runLoopEquiv(t, fmt.Sprintf("seed %d", seed), proto, regs, budget, rng)
	})
}

// TestLoopFastForward drives each clamp on runLoop's fast-forward (the
// compare, the window's page end, the budget) and each shape it must
// refuse through StepN and the Step reference, with a TLB that grants
// stores and one that does not, at budgets from 1 up to one page of
// passes. Eligible shapes must skip passes at some budget; the others
// must never skip one.
func TestLoopFastForward(t *testing.T) {
	const (
		page2 = loopData + mem.PageSize
		page3 = loopData + 2*mem.PageSize
		end   = loopPages * mem.PageSize
		neg1  = ^uint32(0)
		neg4  = ^uint32(3)
	)
	ldb := Instr{Op: OpLdb, Rd: 3, Rs: 6}
	cases := []struct {
		name    string
		shape   loopShape
		regs    map[int]uint32
		codeTLB bool // data pages never in the TLB: no window
		skips   bool
	}{
		{"blt limit mid-page", loopShape{body: []Instr{ldb}, x: 6, y: 5, k: 1, br: OpBlt},
			map[int]uint32{6: loopData, 5: loopData + 0x7FF}, false, true},
		{"bge limit mid-page, x on the right", loopShape{body: []Instr{ldb}, x: 6, y: 5, k: 1, br: OpBge, xRight: true},
			map[int]uint32{6: loopData + 1, 5: loopData + 0x801}, false, true},
		{"bne limit mid-page", loopShape{body: []Instr{ldb}, x: 6, y: 5, k: 2, br: OpBne},
			map[int]uint32{6: loopData, 5: loopData + 0x7FE}, false, true},
		{"negative step, bge limit mid-page", loopShape{body: []Instr{ldb}, x: 6, y: 5, k: neg1, br: OpBge},
			map[int]uint32{6: page2 - 1, 5: loopData + 0x801}, false, true},
		{"negative step, blt limit mid-page, x on the right", loopShape{body: []Instr{ldb}, x: 6, y: 5, k: neg1, br: OpBlt, xRight: true},
			map[int]uint32{6: page2 - 1, 5: loopData + 0x800}, false, true},
		{"no loads, limit and budget only", loopShape{body: []Instr{{Op: OpAdd, Rd: 1, Rs: 6, Rt: 2}, {Op: OpShl, Rd: 3, Rs: 1, Rt: 2}},
			x: 6, y: 5, k: 3, br: OpBlt}, map[int]uint32{6: 0, 5: 30000, 2: 1}, false, true},
		{"bare counter, blt", loopShape{x: 6, y: 5, k: 1, br: OpBlt},
			map[int]uint32{6: 0, 5: 30000}, false, true},
		{"bare counter, bne, x on the right", loopShape{x: 6, y: 5, k: 3, br: OpBne, xRight: true},
			map[int]uint32{6: 0, 5: 30000}, false, true},
		{"bare counter, negative step, bge", loopShape{x: 6, y: 5, k: neg1, br: OpBge},
			map[int]uint32{6: 30000, 5: 7}, false, true},
		{"bare counter, bge, x on the right", loopShape{x: 6, y: 5, k: 2, br: OpBge, xRight: true},
			map[int]uint32{6: 0, 5: 30000}, false, true},
		{"bare counter, beq", loopShape{x: 6, y: 5, k: 1, br: OpBeq},
			map[int]uint32{6: 0, 5: 1}, false, false},
		{"ldb sweep walks off memory", loopShape{body: []Instr{ldb}, x: 6, y: 5, k: 1, br: OpBlt},
			map[int]uint32{6: page3 - 0x900, 5: 0xFFFF_0000}, false, true},
		{"second load crosses the page first", loopShape{body: []Instr{ldb, {Op: OpLdb, Rd: 4, Rs: 6, Imm: 1}, {Op: OpAdd, Rd: 2, Rs: 3, Rt: 4}},
			x: 6, y: 5, k: 1, br: OpBlt}, map[int]uint32{6: page3 - 0x900, 5: 0xFFFF_0000}, false, true},
		{"ld sweep, last word at +4092", loopShape{body: []Instr{{Op: OpLd, Rd: 1, Rs: 4}, {Op: OpXor, Rd: 2, Rs: 1, Rt: 4}},
			x: 4, y: 5, k: 4, br: OpBlt}, map[int]uint32{4: page3 - 0x1000, 5: 0xFFFF_0000}, false, true},
		{"ld sweep down to +0", loopShape{body: []Instr{{Op: OpLd, Rd: 1, Rs: 4, Imm: neg4}},
			x: 4, y: 5, k: neg4, br: OpBge}, map[int]uint32{4: page2 + 0x800, 5: loopData + 4}, false, true},
		{"ld misaligned every other pass", loopShape{body: []Instr{{Op: OpLd, Rd: 1, Rs: 4}},
			x: 4, y: 5, k: 2, br: OpBlt}, map[int]uint32{4: loopData, 5: page2}, false, false},
		{"stride of a page skips nothing", loopShape{body: []Instr{ldb}, x: 6, y: 5, k: mem.PageSize, br: OpBlt},
			map[int]uint32{6: loopData + 5, 5: end}, false, false},
		{"invariant-base load on the sweep's page", loopShape{body: []Instr{ldb, {Op: OpLd, Rd: 1, Rs: 2, Imm: 8}},
			x: 6, y: 5, k: 1, br: OpBlt}, map[int]uint32{6: loopData, 5: page3, 2: loopData}, false, true},
		{"invariant-base load on another page", loopShape{body: []Instr{ldb, {Op: OpLd, Rd: 1, Rs: 2, Imm: 8}},
			x: 6, y: 5, k: 1, br: OpBlt}, map[int]uint32{6: loopData, 5: page2, 2: page3}, false, false},
		{"missing window", loopShape{body: []Instr{ldb}, x: 6, y: 5, k: 1, br: OpBlt},
			map[int]uint32{6: loopData, 5: page3}, true, false},
		{"beq stays one pass at most", loopShape{body: []Instr{ldb}, x: 6, y: 5, k: 1, br: OpBeq},
			map[int]uint32{6: loopData, 5: loopData + 1}, false, false},
		{"carried accumulator", loopShape{body: []Instr{{Op: OpLd, Rd: 1, Rs: 4}, {Op: OpAdd, Rd: 3, Rs: 3, Rt: 1}},
			x: 4, y: 5, k: 4, br: OpBlt}, map[int]uint32{4: loopData, 5: page3}, false, false},
		{"store", loopShape{body: []Instr{ldb, {Op: OpStb, Rs: 6, Rt: 3, Imm: 0x800}}, x: 6, y: 5, k: 1, br: OpBlt},
			map[int]uint32{6: loopData, 5: page2}, false, false},
		{"body writes y", loopShape{body: []Instr{ldb, {Op: OpOr, Rd: 5, Rs: 7, Rt: 3}}, x: 6, y: 5, k: 1, br: OpBlt},
			map[int]uint32{6: loopData, 7: page2}, false, false},
		{"body-computed load base", loopShape{body: []Instr{{Op: OpAddi, Rd: 2, Rs: 6, Imm: 4}, {Op: OpLdb, Rd: 3, Rs: 2}},
			x: 6, y: 5, k: 1, br: OpBlt}, map[int]uint32{6: loopData, 5: page2}, false, false},
	}
	rng := rand.New(rand.NewSource(27))
	for _, c := range cases {
		for _, ro := range []bool{false, true} {
			name := fmt.Sprintf("%s/roTLB=%v", c.name, ro)
			proto := newFakeMem(loopPages)
			proto.roTLB, proto.codeTLB = ro, c.codeTLB
			c.shape.emit(proto)
			for i := loopData; i < len(proto.data); i++ {
				proto.data[i] = byte(i*13 + i>>9)
			}
			var regs Regs
			for r, v := range c.regs {
				regs.R[r] = v
			}
			var skips uint64
			page := mem.PageSize * c.shape.maxCyc()
			for budget := uint64(1); budget <= page; budget += 1 + budget/16 {
				skips += runLoopEquiv(t, name, proto, regs, budget, rng).exec.LoopSkips
			}
			if (skips != 0) != c.skips {
				t.Errorf("%s: %d passes skipped, want skips = %v", name, skips, c.skips)
			}
		}
	}
}
