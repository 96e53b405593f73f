// Threaded-code tier: superinstruction fusion of straight-line runs.
//
// On top of the per-page decode cache (fastpath.go), a block builder
// walks from an entry PC to the next control transfer (branch, call,
// return), halt/break/illegal instruction, or page boundary, and fuses
// the run into a block: a flat slice of pre-decoded instructions executed
// back to back with one cycle-budget check before entry and one trap
// check at the end. Fused execution skips the per-instruction dispatch
// overhead of StepN's switch loop — no page/slot lookup, no budget
// compare, no cycle accumulation per retired instruction (costs are
// precomputed as prefix sums).
//
// Blocks are cached per DecodedPage alongside the decode slots, so the
// existing frame store-generation machinery invalidates them for free:
// self-modifying code, DMA writes, and frame recycling all bump the
// generation, DecodedPageFor resets the page, and Reset drops blocks
// together with the slots. A store *inside* a block re-checks staleness
// immediately (the only in-block event that can dirty code) and bails to
// single-step at the next instruction boundary, cycle-exact.
//
// The correctness contract is the same as StepN's: bit-identical
// registers, memory, cycles, and traps versus a Step loop. The budget
// gate makes this easy to see: a block runs only when the remaining
// budget covers its worst-case cycles, and since every instruction costs
// at least one cycle, every intermediate boundary inside the block is
// strictly below the budget — the reference loop would not have stopped
// there either. Tails that would cross the budget fall back to the
// single-step path.
package cpu

import "repro/internal/mem"

// ExecStats counts decode-cache and threaded-code events for one
// DecodedSource. Counters are monotonic and host-side only: they are
// diagnostics, never inputs to simulated state.
type ExecStats struct {
	PagesDecoded       uint64 // DecodedPage resets for new/changed pages
	StaleResets        uint64 // resets forced by a store-generation bump
	BlocksBuilt        uint64 // fused blocks compiled
	BlockHits          uint64 // fused block executions
	BlockBails         uint64 // block runs cut short or skipped (budget, stale store)
	BlockInvalidations uint64 // built blocks dropped by a page reset
	LoopPasses         uint64 // BlockHits that ran a counted loop (runLoop)
}

// Add accumulates other into s (for kernel-wide aggregation).
func (s *ExecStats) Add(o *ExecStats) {
	s.PagesDecoded += o.PagesDecoded
	s.StaleResets += o.StaleResets
	s.BlocksBuilt += o.BlocksBuilt
	s.BlockHits += o.BlockHits
	s.BlockBails += o.BlockBails
	s.BlockInvalidations += o.BlockInvalidations
	s.LoopPasses += o.LoopPasses
}

// block is one fused straight-line run. body holds the non-control
// instructions in order; term, when termOp != 0, is the single control
// instruction (branch/jump/call/ret) that ends the run. pfx[i] is the
// exact cycle cost of body[0..i-1], so a fault or stale-store bail at
// body index i charges pfx[i] (+CycInstr for the faulting op) without
// per-instruction accumulation. maxCyc is the worst-case cost of the
// whole block (body + terminator with its taken-branch surcharge); the
// zero value (the noBlock sentinel) is never runnable since every real
// block costs at least one cycle.
type block struct {
	body   []decoded
	pfx    []uint16 // len(body)+1 prefix cycle sums; pfx[len(body)] = body total
	term   decoded
	termOp Opcode // valid iff != 0 (OpNop can never terminate a block)
	entry  uint32 // PC of body[0]
	endPC  uint32 // PC after the body: the terminator's PC, or the resume PC
	maxCyc uint64

	// Self-loop shapes, at most one per block. Accumulator superinstruction
	// (see specializeAcc): when accOp != 0 the whole block is
	// `acc = acc OP src; branch back while COND` and runAcc executes it
	// with the live values in scalars, free of the register-array
	// store/load dependency chain that limits the generic walk. Counted
	// loop (see specializeLoop): when loop is set the body ends in the
	// induction step of the register the terminator compares, and runLoop
	// folds step and branch into the pass.
	accOp     Opcode // normalized body op (OpAddi folds into OpAdd)
	accSrcImm bool   // src is d.imm rather than a register
	loop      bool
	cmpEq     bool // terminator compares ==/!= (else </>=)
	cmpWant   bool // loop continues while compare == cmpWant
}

// noBlock marks entries where fusion is pointless (a control transfer,
// halt/break/illegal, or page-straddling first instruction): maxCyc == 0
// keeps it un-runnable and the dispatch loop falls through to
// single-step immediately.
var noBlock = &block{}

// maxBlockLen caps a block's body so worst-case cost stays well under
// typical batch budgets; a page holds at most PageSize/InstrSize = 512
// instructions anyway.
const maxBlockLen = 256

// minBlockLen is the minimum fused run (body + terminator) worth a
// block; shorter runs stay on the single-step path (see buildBlock).
const minBlockLen = 3

// instrCost returns the static cycle cost of a fused body instruction.
func instrCost(op Opcode) uint16 {
	switch op {
	case OpLd, OpSt, OpLdb, OpStb:
		return CycInstr + CycMem
	case OpMul:
		return CycInstr + 3
	}
	return CycInstr
}

// isControl reports whether op transfers control (ends a block as its
// terminator).
func isControl(op Opcode) bool {
	switch op {
	case OpBeq, OpBne, OpBlt, OpBge, OpJmp, OpCall, OpCallR, OpRet:
		return true
	}
	return false
}

// decodeSlot fills d from the two instruction words at pc, marking the
// slot decIllegal when they do not form a valid instruction. It reports
// whether the fetch succeeded; a fetch fault leaves d untouched so the
// single-step path raises the fault with full precision.
func decodeSlot(m DecodedSource, pc uint32, d *decoded) bool {
	w0, f := m.Fetch32(pc)
	if f != nil {
		return false
	}
	imm, f := m.Fetch32(pc + 4)
	if f != nil {
		return false
	}
	op := uint8(w0 >> 24)
	rd := uint8(w0>>20) & 0xF
	rs := uint8(w0>>16) & 0xF
	rt := uint8(w0>>12) & 0xF
	if op >= uint8(opMax) || rd >= NumRegs || rs >= NumRegs || rt >= NumRegs {
		*d = decoded{op1: decIllegal}
	} else {
		*d = decoded{op1: op + 1, rd: rd, rs: rs, rt: rt, imm: imm}
	}
	return true
}

// buildBlock fuses the straight-line run starting at pc into a block,
// caches it in p.blocks[slot], and returns it. Unfusable entries cache
// the noBlock sentinel so the walk happens once per slot per page
// generation. The walk shares p.slots with the single-step path: every
// instruction it decodes lands in the decode cache too.
//
// All fetches stay within pc's page, whose executable translation the
// caller just validated via DecodedPageFor, so they cannot fault in
// practice; if one does anyway the walk simply stops and single-step
// execution raises the fault precisely.
func (p *DecodedPage) buildBlock(m DecodedSource, st *ExecStats, pc uint32, slot uint32) *block {
	b := &block{entry: pc}
	page := pc >> mem.PageShift
	cur := pc
	for len(b.body) < maxBlockLen {
		if cur>>mem.PageShift != page {
			break // next instruction starts on the next page
		}
		s := (cur >> 2) & (decSlots - 1)
		if s == decSlots-1 {
			break // immediate word straddles into the next page
		}
		d := &p.slots[s]
		if d.op1 == 0 && !decodeSlot(m, cur, d) {
			break
		}
		if d.op1 == decIllegal {
			break
		}
		op := Opcode(d.op1 - 1)
		if isControl(op) {
			b.term = *d
			b.termOp = op
			break
		}
		if op == OpHalt || op == OpBrk {
			break
		}
		b.body = append(b.body, *d)
		cur += InstrSize
	}
	if len(b.body) == 0 {
		// Nothing to fuse: the entry is itself a control transfer,
		// halt/break/illegal, or straddles the page. A terminator-only
		// "block" would just re-dispatch one instruction through the
		// heavier block executor — measurably slower than the
		// single-step switch on branch-dense code — so cache noBlock.
		p.blocks[slot] = noBlock
		return noBlock
	}
	b.endPC = cur
	b.pfx = make([]uint16, len(b.body)+1)
	var sum uint16
	for i := range b.body {
		b.pfx[i] = sum
		sum += instrCost(Opcode(b.body[i].op1 - 1))
	}
	b.pfx[len(b.body)] = sum
	b.maxCyc = uint64(sum)
	termN := 0
	if b.termOp != 0 {
		b.maxCyc += CycInstr + CycBr
		termN = 1
	}
	b.specializeAcc()
	b.specializeLoop()
	if b.accOp == 0 && len(b.body)+termN < minBlockLen {
		// Too short to amortize the block executor's entry/exit cost:
		// on branch-dense code a 2-instruction fused run is slower than
		// two single-step dispatches. The accumulator self-loop is the
		// exception — it is 2 instructions but runs many passes per
		// dispatch in host scalars.
		p.blocks[slot] = noBlock
		return noBlock
	}
	p.blocks[slot] = b
	p.built++
	st.BlocksBuilt++
	return b
}

// specializeAcc recognizes the accumulator self-loop shape — a single
// pure-ALU body instruction updating one register in place, and a
// conditional branch on that register back to the block's own entry:
//
//	loop: acc = acc OP src
//	      bCC  acc, lim, loop
//
// — the inner loop of counters, delays, and reductions. runAcc executes
// it with acc, src, and lim in host scalars; the generic walk keeps the
// register file in memory, so the loop-carried dependency costs a
// store-to-load forward per pass, which this removes.
func (b *block) specializeAcc() {
	if len(b.body) != 1 || b.term.imm != b.entry {
		return
	}
	switch b.termOp {
	case OpBeq, OpBne, OpBlt, OpBge:
	default:
		return
	}
	d := &b.body[0]
	op := Opcode(d.op1 - 1)
	switch op {
	case OpAddi:
		op = OpAdd
		b.accSrcImm = true
	case OpAdd, OpSub, OpAnd, OpOr, OpXor, OpShl, OpShr, OpMul:
		if d.rt == d.rd {
			return // src must be loop-invariant
		}
	default:
		return
	}
	if d.rs != d.rd || b.term.rs != d.rd || b.term.rt == d.rd {
		return // not acc-shaped, or the limit is not loop-invariant
	}
	b.accOp = op
	b.setCmp()
}

// runAcc executes an accumulator self-loop (see specializeAcc) entirely
// in scalars, pass after pass, until the branch falls through or the
// budget cannot cover another worst-case pass. Cycle and retirement
// accounting is identical to the generic walk: every pass charges body +
// branch (+CycBr when taken) and retires two instructions. The body is
// pure ALU, so no faults and no staleness checks can occur mid-pass.
func (b *block) runAcc(r *Regs, budget uint64) (uint64, uint64, uint64, uint32, int, Trap) {
	d := &b.body[0]
	acc := r.R[d.rd&7]
	src := d.imm
	if !b.accSrcImm {
		src = r.R[d.rt&7]
	}
	lim := r.R[b.term.rt&7]
	op := b.accOp
	eq, want := b.cmpEq, b.cmpWant
	base := uint64(b.pfx[1]) + CycInstr // body + untaken branch
	maxCyc := b.maxCyc
	var cycles, retired, hits uint64
	for {
		hits++
		switch op {
		case OpAdd:
			acc += src
		case OpSub:
			acc -= src
		case OpAnd:
			acc &= src
		case OpOr:
			acc |= src
		case OpXor:
			acc ^= src
		case OpShl:
			acc <<= src & 31
		case OpShr:
			acc >>= src & 31
		case OpMul:
			acc *= src
		}
		cycles += base
		retired += 2
		var stay bool
		if eq {
			stay = (acc == lim) == want
		} else {
			stay = (acc < lim) == want
		}
		if !stay {
			r.R[d.rd&7] = acc
			return cycles, retired, hits, b.endPC + InstrSize, blockOK, Trap{}
		}
		cycles += CycBr
		if cycles+maxCyc > budget {
			r.R[d.rd&7] = acc
			return cycles, retired, hits, b.entry, blockOK, Trap{}
		}
	}
}

// Block run outcomes.
const (
	blockOK    = iota // ran to the end; continue at nextPC
	blockStale        // a body store dirtied this page; re-acquire and demote
	blockTrap         // trap raised; r.PC is set, return from StepN
)

// run executes the fused block against r and m, looping in place while
// the terminator branches back to the block's own entry and budget
// covers another worst-case pass (the hot-self-loop case: a counted loop
// fused into one block runs to budget exhaustion without ever returning
// to the dispatch loop). The caller must have checked that budget covers
// b.maxCyc once. It returns the exact cycles consumed, the instructions
// retired, the number of block passes (for cpu.blocks.hits), the next PC
// (blockOK and blockStale), the outcome, and the trap (blockTrap only).
// Loads and stores try tlb inline and call m only on a miss.
//
// Fault and bail sequencing is cycle- and word-exact versus single-step:
// a faulting memory op charges only CycInstr on top of the retired
// prefix, leaves registers untouched, and r.PC addresses it precisely; a
// store that bumps this page's generation commits fully (it retired) and
// ends the block at the next instruction boundary.
func (b *block) run(r *Regs, m DecodedSource, tlb *TLB, dp *DecodedPage, budget uint64) (uint64, uint64, uint64, uint32, int, Trap) {
	if b.accOp != 0 {
		return b.runAcc(r, budget)
	}
	if b.loop {
		return b.runLoop(r, m, tlb, dp, budget)
	}
	// The register file lives in a local array for the duration of the
	// block: the compiler then knows the interface calls (Load32 etc.)
	// cannot alias it, so values stay hot across memory ops. Every
	// return path writes it back first; fault precision is preserved
	// because R holds exactly the state after the last retired
	// instruction.
	R := r.R
	body := b.body
	n := len(body)
	bodyCyc := uint64(b.pfx[n])
	bodyRet := uint64(n)
	term := b.term
	termOp := b.termOp
	fall := b.endPC + InstrSize
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
				v, ok := tlb.Load32(va)
				if !ok {
					var f *Fault
					if v, f = m.Load32(va); f != nil {
						return b.fault(r, R, i, cycles, retired, hits, f)
					}
				}
				R[d.rd&7] = v
			case OpSt:
				if va := R[d.rs&7] + d.imm; !tlb.Store32(va, R[d.rt&7]) {
					if f := m.Store32(va, R[d.rt&7]); f != nil {
						return b.fault(r, R, i, cycles, retired, hits, f)
					}
				}
				if dp.Stale() {
					return b.stale(r, R, i, cycles, retired, hits)
				}
			case OpLdb:
				va := R[d.rs&7] + d.imm
				v, ok := tlb.Load8(va)
				if !ok {
					var f *Fault
					if v, f = m.Load8(va); f != nil {
						return b.fault(r, R, i, cycles, retired, hits, f)
					}
				}
				R[d.rd&7] = uint32(v)
			case OpStb:
				if va := R[d.rs&7] + d.imm; !tlb.Store8(va, byte(R[d.rt&7])) {
					if f := m.Store8(va, byte(R[d.rt&7])); f != nil {
						return b.fault(r, R, i, cycles, retired, hits, f)
					}
				}
				if dp.Stale() {
					return b.stale(r, R, i, cycles, retired, hits)
				}
			}
		}
		cycles += bodyCyc
		retired += bodyRet
		if termOp == 0 {
			r.R = R
			return cycles, retired, hits, b.endPC, blockOK, Trap{}
		}
		next := fall
		cycles += CycInstr
		switch termOp {
		case OpBeq:
			if R[term.rs&7] == R[term.rt&7] {
				next = term.imm
				cycles += CycBr
			}
		case OpBne:
			if R[term.rs&7] != R[term.rt&7] {
				next = term.imm
				cycles += CycBr
			}
		case OpBlt:
			if R[term.rs&7] < R[term.rt&7] {
				next = term.imm
				cycles += CycBr
			}
		case OpBge:
			if R[term.rs&7] >= R[term.rt&7] {
				next = term.imm
				cycles += CycBr
			}
		case OpJmp:
			next = term.imm
			cycles += CycBr
		case OpCall:
			R[LR] = next
			next = term.imm
			cycles += CycBr
		case OpCallR:
			R[LR] = next
			next = R[term.rs&7]
			cycles += CycBr
		case OpRet:
			next = R[LR]
			cycles += CycBr
		}
		retired++
		if next != b.entry || cycles+b.maxCyc > budget {
			r.R = R
			return cycles, retired, hits, next, blockOK, Trap{}
		}
	}
}

// fault ends a block run at body index i, whose memory access raised f:
// registers R as of the retired prefix, r.PC at the faulting instruction,
// and CycInstr charged for it on top of the prefix.
func (b *block) fault(r *Regs, R [NumRegs]uint32, i int, cycles, retired, hits uint64, f *Fault) (uint64, uint64, uint64, uint32, int, Trap) {
	r.R = R
	r.PC = b.entry + uint32(i)*InstrSize
	return cycles + uint64(b.pfx[i]) + CycInstr, retired + uint64(i), hits, 0, blockTrap, Trap{Kind: TrapFault, Fault: *f}
}

// stale ends a block run after body index i, a store that dirtied the
// block's own page: the store retired, and execution resumes single-step at
// the next instruction once the page is re-validated.
func (b *block) stale(r *Regs, R [NumRegs]uint32, i int, cycles, retired, hits uint64) (uint64, uint64, uint64, uint32, int, Trap) {
	r.R = R
	return cycles + uint64(b.pfx[i+1]), retired + uint64(i+1), hits, b.entry + uint32(i+1)*InstrSize, blockStale, Trap{}
}
