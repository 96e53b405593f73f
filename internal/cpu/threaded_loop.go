// Counted-loop executor: the one shape-specialized block executor beside
// the generic walk. A fused self-loop whose body ends in the induction step
// of the register its branch compares — the array sweeps of memtest and
// gcc, and the bare counter — runs the step and the compare inline, and
// reads through a one-page window that lives across passes. See
// specializeLoop for the shape and runLoop for the execution contract,
// which is run's.
package cpu

import (
	"encoding/binary"

	"repro/internal/mem"
)

// specializeLoop recognizes the counted self-loop — a conditional branch
// back to the block's own entry on a register x that only the body's last
// instruction, `addi x, x, k`, writes:
//
//	loop: ldb  r3, [r6]      (any fusable body not writing r6, or none)
//	      addi r6, r6, 1
//	      blt  r6, r5, loop  (x on either side of the compare)
//
// — the array sweeps of memtest and gcc, and with nothing before the step
// the bare counter. runLoop runs the step and the compare inline instead of
// dispatching them. The bare counter is the only block built for being a
// loop (see minBlockLen); other two-instruction self-loops, such as
// `add x,x,r; bCC x,y`, stay on the decode-cache path.
func (b *block) specializeLoop() {
	n := len(b.body) // at least 1: buildBlock caches noBlock for empty bodies
	if b.term.imm != b.entry {
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
	var wr uint8 // registers the body before the step writes
	for i := range b.body[:n-1] {
		wr |= writes(&b.body[i])
	}
	if wr&(1<<x) != 0 {
		return
	}
	b.loop = true
	b.cmpEq = b.termOp == OpBeq || b.termOp == OpBne
	b.cmpWant = b.termOp == OpBeq || b.termOp == OpBlt
	y := b.term.rs ^ b.term.rt ^ x // the compare's other operand
	b.idem = step.imm != 0 && y != x && wr&(1<<y) == 0 && b.passIdempotent(x, wr)
}

// passIdempotent reports whether a pass of the counted loop on x, whose
// body writes the registers in wr, carries no value but x to the next: the
// body before the step only computes and loads, reads only x, registers it
// never writes and ones written earlier in the pass, and loads only from x
// or a register it never writes. Such a pass over pages the TLB grants is
// a pure function of x, and runLoop may skip it (see ffSkips).
func (b *block) passIdempotent(x, wr uint8) bool {
	var done uint8 // registers written so far this pass
	for i := range b.body[:len(b.body)-1] {
		d := &b.body[i]
		reads, bad := uint8(1<<d.rs|1<<d.rt), wr&^done // bad: carried from the last pass
		switch Opcode(d.op1 - 1) {
		case OpSt, OpStb:
			return false
		case OpNop, OpMovi:
			reads = 0
		case OpLd, OpLdb:
			bad = wr // nor may the body compute a load's base
			fallthrough
		case OpMov, OpAddi:
			reads = 1 << d.rs
		}
		if reads&^(1<<x)&bad != 0 {
			return false
		}
		done |= writes(d)
	}
	return true
}

// writes returns the register the fused body instruction d writes, as a
// one-bit mask, or 0.
func writes(d *decoded) uint8 {
	switch Opcode(d.op1 - 1) {
	case OpNop, OpSt, OpStb:
		return 0
	}
	return 1 << d.rd
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

// ffSkips returns how many passes after the one just run a pass-idempotent
// loop may skip: the largest s such that each of the next s passes stays
// in the loop and passes the budget check (room is budget minus the cycles
// so far), and each of the next s+1 reads only the window's page, aligned
// for Ld. The pass after the skipped ones then runs for real without a
// fault, setting every register the body writes as the last skipped pass
// would have; a skipped load is a TLB hit with no effect anyone can see.
func (b *block) ffSkips(R *[NumRegs]uint32, win *readWindow, room uint64) uint64 {
	n := len(b.body) - 1
	x, k := b.body[n].rd&7, b.body[n].imm
	xv, fwd, step := R[x], k < 1<<31, k
	if !fwd {
		step = -k
	}
	// The compare holds while x is in [lo, hi], a range that wraps for bne.
	xLeft, yv := b.term.rs&7 == x, R[(b.term.rs^b.term.rt^x)&7]
	lo, hi := uint32(0), ^uint32(0)
	switch {
	case b.cmpEq && b.cmpWant:
		return 0 // beq: x moves off y at once
	case b.cmpEq:
		lo, hi = yv+1, yv-1
	case b.cmpWant == xLeft: // blt x,y or bge y,x
		hi = yv
		if xLeft {
			hi--
		}
	default: // bge x,y or blt y,x
		lo = yv
		if !xLeft {
			lo++
		}
	}
	dist := hi - xv
	if !fwd {
		dist = xv - lo
	}
	s := min(uint64(dist/step), room/b.maxCyc-1) // a stayed pass costs maxCyc
	for i := range b.body[:n] {
		d := &b.body[i]
		op := Opcode(d.op1 - 1)
		if op != OpLd && op != OpLdb {
			continue
		}
		va, last := R[d.rs&7]+d.imm, uint32(mem.PageMask)
		if op == OpLd {
			if va&3 != 0 || step&3 != 0 && d.rs&7 == x {
				return 0
			}
			last -= 3
		}
		if va>>mem.PageShift != win.vpn {
			return 0
		}
		if d.rs&7 == x {
			left := last - va&mem.PageMask // bytes to the page end the sweep moves toward
			if !fwd {
				left = va & mem.PageMask
			}
			s = min(s, uint64(left/step))
		}
	}
	return s
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
// A pass-idempotent loop (b.idem) skips the passes ffSkips allows after
// each pass that stays, counting them in st.LoopSkips and in every total
// as if they had run. The check rides on the budget compare — past slowAt
// a pass ends the run or, for b.idem, tries the skip — so other loops pay
// nothing for it.
//
// It is its own function rather than a flag inside run: the generic walk
// keeps its shape for every other block, and the window, which only pays
// across many passes over one page, stays out of it.
func (b *block) runLoop(r *Regs, m DecodedSource, tlb *TLB, dp *DecodedPage, st *ExecStats, budget uint64) (uint64, uint64, uint64, uint32, int, Trap) {
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
	slowAt := budget - maxCyc
	if b.idem {
		slowAt = 0
	}
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
		if cycles > slowAt {
			if cycles+maxCyc > budget {
				r.R = R
				return cycles, retired, hits, b.entry, blockOK, Trap{}
			}
			s := b.ffSkips(&R, &win, budget-cycles)
			xv += uint32(s) * k
			R[x] = xv
			cycles, retired, hits = cycles+s*maxCyc, retired+s*passRet, hits+s
			st.LoopSkips += s
		}
	}
}
