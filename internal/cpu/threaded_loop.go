// Counted-loop executor: the second shape-specialized block executor
// beside runAcc. A fused self-loop whose body ends in the induction step of
// the register its branch compares — the array sweeps of memtest and gcc —
// runs the step and the compare inline, and reads through a one-page window
// that lives across passes. See specializeLoop for the shape and runLoop
// for the execution contract, which is run's.
package cpu

import (
	"encoding/binary"

	"repro/internal/mem"
)

// setCmp records the conditional terminator's compare for the self-loop
// executors.
func (b *block) setCmp() {
	b.cmpEq = b.termOp == OpBeq || b.termOp == OpBne
	b.cmpWant = b.termOp == OpBeq || b.termOp == OpBlt
}

// specializeLoop recognizes the counted self-loop — a conditional branch
// back to the block's own entry on a register x that only the body's last
// instruction, `addi x, x, k`, writes:
//
//	loop: ldb  r3, [r6]      (any fusable body not writing r6)
//	      addi r6, r6, 1
//	      blt  r6, r5, loop  (x on either side of the compare)
//
// — the array sweeps of memtest and gcc. runLoop runs the step and the
// compare inline instead of dispatching them. Blocks too short to be built
// at all (see minBlockLen) are not considered, so the set of built blocks,
// and every counter about them, is the same with or without this shape.
func (b *block) specializeLoop() {
	n := len(b.body)
	if b.accOp != 0 || n < 2 || b.term.imm != b.entry {
		return
	}
	switch b.termOp {
	case OpBeq, OpBne, OpBlt, OpBge:
	default:
		return
	}
	step := &b.body[n-1]
	x := step.rd
	if Opcode(step.op1-1) != OpAddi || step.rs != x || (b.term.rs != x && b.term.rt != x) {
		return
	}
	for i := range b.body[:n-1] {
		if writesReg(&b.body[i], x) {
			return
		}
	}
	b.loop = true
	b.setCmp()
}

// writesReg reports whether the fused body instruction d writes register x.
func writesReg(d *decoded, x uint8) bool {
	switch Opcode(d.op1 - 1) {
	case OpNop, OpSt, OpStb:
		return false
	}
	return d.rd == x
}

// readWindow is runLoop's one-page read window: data aliases the frame of
// page vpn. It is only ever taken from a TLB slot that granted read, and
// it is dropped after any access that went through cpu.Memory — a TLB
// miss, a device word, a dirty-log store — because that call can run mmu
// or device code that flushes or repoints the translation the window came
// from. Stores that hit the TLB leave it alone: they write the frame it
// aliases.
type readWindow struct {
	vpn  uint32 // noWindow when unset
	data []byte
}

// noWindow is a page number no 32-bit address has.
const noWindow = ^uint32(0)

// refill points the window at va's page if the TLB grants read on it.
func (w *readWindow) refill(t *TLB, va uint32) bool {
	d := t.Page(va, TLBRead)
	if d == nil {
		return false
	}
	w.vpn, w.data = va>>mem.PageShift, d
	return true
}

// runLoop executes a counted self-loop (see specializeLoop) pass after
// pass: the body without its trailing induction step through the same
// switch as run, then the step and the compare inline — no terminator
// dispatch. Loads read through a readWindow that lives across passes, so
// a sweep pays one TLB lookup per page instead of one per access. Cycles,
// retirements, passes, faults, stale-store bails and budget exits are
// exactly run's: it is run on a block whose last two instructions are
// known.
//
// It is its own function rather than a flag inside run: the generic walk
// keeps its shape for every other block, and the window, which only pays
// across many passes over one page, stays out of it.
func (b *block) runLoop(r *Regs, m DecodedSource, tlb *TLB, dp *DecodedPage, budget uint64) (uint64, uint64, uint64, uint32, int, Trap) {
	R := r.R
	n := len(b.body) - 1
	body := b.body[:n]
	// Only the step writes x, so x lives in a scalar and the loop-carried
	// chain stays out of the register array; R[x] is stored each pass for
	// the body to read. y is the compare's other operand.
	x, k := b.body[n].rd&7, b.body[n].imm
	xv := R[x]
	y, xLeft := b.term.rt&7, b.term.rs&7 == x
	if !xLeft {
		y = b.term.rs & 7
	}
	eq, want := b.cmpEq, b.cmpWant
	passCyc := uint64(b.pfx[n+1]) + CycInstr // body, step and untaken branch
	passRet := uint64(n + 2)
	maxCyc := b.maxCyc
	win := readWindow{vpn: noWindow}
	var cycles, retired, hits uint64
	for {
		hits++
		for i := range body {
			d := &body[i]
			switch Opcode(d.op1 - 1) {
			case OpNop:
			case OpMovi:
				R[d.rd&7] = d.imm
			case OpMov:
				R[d.rd&7] = R[d.rs&7]
			case OpAdd:
				R[d.rd&7] = R[d.rs&7] + R[d.rt&7]
			case OpSub:
				R[d.rd&7] = R[d.rs&7] - R[d.rt&7]
			case OpAnd:
				R[d.rd&7] = R[d.rs&7] & R[d.rt&7]
			case OpOr:
				R[d.rd&7] = R[d.rs&7] | R[d.rt&7]
			case OpXor:
				R[d.rd&7] = R[d.rs&7] ^ R[d.rt&7]
			case OpShl:
				R[d.rd&7] = R[d.rs&7] << (R[d.rt&7] & 31)
			case OpShr:
				R[d.rd&7] = R[d.rs&7] >> (R[d.rt&7] & 31)
			case OpMul:
				R[d.rd&7] = R[d.rs&7] * R[d.rt&7]
			case OpAddi:
				R[d.rd&7] = R[d.rs&7] + d.imm
			case OpLd:
				va := R[d.rs&7] + d.imm
				if va&3 == 0 && (va>>mem.PageShift == win.vpn || win.refill(tlb, va)) {
					R[d.rd&7] = binary.LittleEndian.Uint32(win.data[va&mem.PageMask:])
					break
				}
				v, f := m.Load32(va)
				win.vpn = noWindow
				if f != nil {
					return b.fault(r, R, i, cycles, retired, hits, f)
				}
				R[d.rd&7] = v
			case OpSt:
				if va := R[d.rs&7] + d.imm; !tlb.Store32(va, R[d.rt&7]) {
					win.vpn = noWindow
					if f := m.Store32(va, R[d.rt&7]); f != nil {
						return b.fault(r, R, i, cycles, retired, hits, f)
					}
				}
				if dp.Stale() {
					return b.stale(r, R, i, cycles, retired, hits)
				}
			case OpLdb:
				va := R[d.rs&7] + d.imm
				if va>>mem.PageShift == win.vpn || win.refill(tlb, va) {
					R[d.rd&7] = uint32(win.data[va&mem.PageMask])
					break
				}
				v, f := m.Load8(va)
				win.vpn = noWindow
				if f != nil {
					return b.fault(r, R, i, cycles, retired, hits, f)
				}
				R[d.rd&7] = uint32(v)
			case OpStb:
				if va := R[d.rs&7] + d.imm; !tlb.Store8(va, byte(R[d.rt&7])) {
					win.vpn = noWindow
					if f := m.Store8(va, byte(R[d.rt&7])); f != nil {
						return b.fault(r, R, i, cycles, retired, hits, f)
					}
				}
				if dp.Stale() {
					return b.stale(r, R, i, cycles, retired, hits)
				}
			}
		}
		xv += k
		R[x] = xv
		cycles += passCyc
		retired += passRet
		lhs, rhs := xv, R[y]
		if !xLeft {
			lhs, rhs = rhs, lhs
		}
		var stay bool
		if eq {
			stay = (lhs == rhs) == want
		} else {
			stay = (lhs < rhs) == want
		}
		if !stay {
			r.R = R
			return cycles, retired, hits, b.endPC + InstrSize, blockOK, Trap{}
		}
		cycles += CycBr
		if cycles+maxCyc > budget {
			r.R = R
			return cycles, retired, hits, b.entry, blockOK, Trap{}
		}
	}
}
