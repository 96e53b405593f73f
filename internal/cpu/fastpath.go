// Simulator fast path: a per-page decoded-instruction cache and a batch
// interpreter (StepN) that executes straight-line and loop code without
// re-fetching or re-decoding retired instructions.
//
// Correctness contract: StepN(r, m, n) must be observably identical to
// calling Step(r, m) repeatedly until a trap occurs or the accumulated
// cycles reach n — same register file, same memory writes, same cycle
// total, same trap. The caches here change only wall-clock cost, never
// simulated state: they are invisible to virtual time.
package cpu

import "repro/internal/mem"

// decSlots is one decode slot per possible (4-byte aligned) instruction
// start in a page. The last slot is never cached: its immediate word lives
// in the next page, so it always takes the Step slow path.
const decSlots = mem.PageSize / 4

// decIllegal marks a slot whose words do not decode to a valid
// instruction (bad opcode or register field); executing it raises
// TrapIllegal, exactly as Step would.
const decIllegal = 0xFF

// decoded is one pre-decoded instruction. op1 is Opcode+1 so the zero
// value means "not decoded yet" (a real OpNop decodes to op1 == 1).
type decoded struct {
	op1        uint8
	rd, rs, rt uint8
	imm        uint32
}

// DecodedPage caches the decoded instructions of one executable page. It
// validates against the backing frame's store generation: any write to the
// frame (through the MMU, DMA, or frame recycling) bumps the generation
// and makes the page stale, so self-modifying code can never execute a
// stale decode.
//
// Alongside the decode slots it caches fused blocks (threaded.go), one
// per possible entry slot, dropped by the same Reset: the store
// generation is the single invalidation signal for both tiers.
type DecodedPage struct {
	slots [decSlots]decoded
	gen   *uint64 // the backing frame's store-generation counter
	snap  uint64  // generation when the slots were (re)initialized

	// NoBlocks disables the threaded-code tier for this page (set by the
	// owner after Reset when Config.DisableThreadedCode is on).
	NoBlocks bool
	blocks   [decSlots]*block // fused blocks keyed by entry slot
	built    int              // real blocks in blocks (excludes noBlock)
}

// Reset drops all cached decodes and fused blocks and revalidates the
// page against gen. NoBlocks is sticky: the owner decides it per space,
// not per generation.
func (p *DecodedPage) Reset(gen *uint64) {
	clear(p.slots[:])
	clear(p.blocks[:])
	p.built = 0
	p.gen = gen
	p.snap = *gen
}

// BuiltBlocks returns the number of fused blocks currently cached, so
// callers about to Reset the page can account the invalidations.
func (p *DecodedPage) BuiltBlocks() int { return p.built }

// Stale reports whether the backing frame has been written since Reset.
func (p *DecodedPage) Stale() bool { return *p.gen != p.snap }

// DecodedSource is the memory view StepN runs against: ordinary Memory
// plus a probe for the decoded-page cache. DecodedPageFor must be a pure
// probe — no faults counted, no translations installed — and may return
// nil to force the Step slow path for that page. ExecStats returns the
// source's decode/block counters; it must be non-nil and stable for the
// duration of a StepN call. TLB returns the source's software TLB (at
// least one slot; all-invalid is fine), which fused blocks consult before
// calling Memory: every hit must read and write exactly what the Memory
// method would, so a source must clear a slot whenever the translation it
// caches goes away.
type DecodedSource interface {
	Memory
	DecodedPageFor(pc uint32) *DecodedPage
	ExecStats() *ExecStats
	TLB() TLB
}

// syscallSpan is the byte size of the syscall entry page's active window.
const syscallSpan = MaxSyscalls * InstrSize

// StepN executes instructions until a trap occurs or the accumulated
// cycle count reaches maxCycles, and returns the cycles consumed, the
// number of normally-retired instructions, and the ending trap (TrapNone
// when the cycle budget ended the batch). It is observably identical to a
// Step loop with the same budget; see the package comment.
//
// retired counts only TrapNone retirements — a trapping instruction is
// not "retired" even when (like BRK) it advances the PC.
func StepN(r *Regs, m DecodedSource, maxCycles uint64) (uint64, uint64, Trap) {
	var cycles, retired uint64
	var dp *DecodedPage
	var tlb TLB // fetched on the first block entry: syscall-bound batches never need it
	st := m.ExecStats()
	pageVPN := ^uint32(0)
	// pc shadows r.PC across the loop; every return path writes it back
	// (r.PC = pc) so the register file is always consistent on exit.
	pc := r.PC

	for {
		// Page-crossing work hoists out of the straight-line path: the
		// syscall-page check need only run when the VPN changes, because
		// control can only enter the syscall page by crossing into it
		// (and pageVPN starts invalid, so batch entry always checks).
		// Staleness is checked by DecodedPageFor at acquisition and
		// re-checked after every store — the only in-batch event that
		// can change a frame's store generation.
		if vpn := pc >> mem.PageShift; dp == nil || vpn != pageVPN {
			if pc-SyscallBase < syscallSpan {
				if n := SyscallNum(pc); n >= 0 {
					r.PC = pc
					return cycles, retired, Trap{Kind: TrapSyscall, Sys: n}
				}
			}
			dp = m.DecodedPageFor(pc)
			pageVPN = vpn
		}

		slot := (pc >> 2) & (decSlots - 1)
		if dp == nil || pc&3 != 0 || slot == decSlots-1 {
			// Slow path: no decode cache for this page, misaligned PC
			// (Fetch32 must raise the fault), or an instruction whose
			// immediate straddles into the next page.
			r.PC = pc
			cyc, trap := Step(r, m)
			pc = r.PC
			dp = nil // a slow-path store may have dirtied any page
			if trap.Kind != TrapNone {
				return cycles + cyc, retired, trap
			}
			cycles += cyc
			retired++
			if cycles >= maxCycles {
				return cycles, retired, Trap{Kind: TrapNone}
			}
			continue
		}

		// Threaded-code tier: run a fused block when one exists (building
		// it on first visit) and the remaining budget covers its worst
		// case. Anything else — un-fusable entries, tight budgets, block
		// tails after a stale-store bail — falls through to the
		// single-step path below, which shares dp.slots with the builder.
		if !dp.NoBlocks {
			b := dp.blocks[slot]
			if b == nil {
				b = dp.buildBlock(m, st, pc, slot)
			}
			if b.maxCyc != 0 {
				if cycles+b.maxCyc <= maxCycles {
					if tlb.Slots == nil {
						tlb = m.TLB()
					}
					cyc, ret, hits, next, out, trap := b.run(r, m, &tlb, dp, maxCycles-cycles)
					st.BlockHits += hits
					if b.loop {
						st.LoopPasses += hits
					}
					cycles += cyc
					retired += ret
					if out == blockTrap {
						return cycles, retired, trap
					}
					pc = next
					if out == blockStale {
						// The block stored into its own page: committed
						// through that store, now re-validate before
						// decoding another word.
						st.BlockBails++
						dp = nil
					}
					if cycles >= maxCycles {
						r.PC = pc
						return cycles, retired, Trap{Kind: TrapNone}
					}
					continue
				}
				// Budget cannot cover the worst case: single-step the
				// tail so a timer deadline or stopAt lands cycle-exact.
				st.BlockBails++
			}
		}

		d := &dp.slots[slot]
		if d.op1 == 0 {
			r.PC = pc
			w0, f := m.Fetch32(pc)
			if f != nil {
				return cycles + CycInstr, retired, Trap{Kind: TrapFault, Fault: *f}
			}
			imm, f := m.Fetch32(pc + 4)
			if f != nil {
				return cycles + CycInstr, retired, Trap{Kind: TrapFault, Fault: *f}
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
		}

		rd, rs, rt := int(d.rd), int(d.rs), int(d.rt)
		imm := d.imm
		next := pc + InstrSize
		c := uint64(CycInstr)

		switch Opcode(d.op1 - 1) {
		case OpNop:
		case OpHalt:
			r.PC = pc
			return cycles + c, retired, Trap{Kind: TrapHalt}
		case OpBrk:
			r.PC = next
			return cycles + c, retired, Trap{Kind: TrapBreak}
		case OpMovi:
			r.R[rd] = imm
		case OpMov:
			r.R[rd] = r.R[rs]
		case OpAdd:
			r.R[rd] = r.R[rs] + r.R[rt]
		case OpSub:
			r.R[rd] = r.R[rs] - r.R[rt]
		case OpAnd:
			r.R[rd] = r.R[rs] & r.R[rt]
		case OpOr:
			r.R[rd] = r.R[rs] | r.R[rt]
		case OpXor:
			r.R[rd] = r.R[rs] ^ r.R[rt]
		case OpShl:
			r.R[rd] = r.R[rs] << (r.R[rt] & 31)
		case OpShr:
			r.R[rd] = r.R[rs] >> (r.R[rt] & 31)
		case OpMul:
			r.R[rd] = r.R[rs] * r.R[rt]
			c += 3
		case OpAddi:
			r.R[rd] = r.R[rs] + imm
		case OpLd:
			v, f := m.Load32(r.R[rs] + imm)
			if f != nil {
				r.PC = pc
				return cycles + c, retired, Trap{Kind: TrapFault, Fault: *f}
			}
			r.R[rd] = v
			c += CycMem
		case OpSt:
			if f := m.Store32(r.R[rs]+imm, r.R[rt]); f != nil {
				r.PC = pc
				return cycles + c, retired, Trap{Kind: TrapFault, Fault: *f}
			}
			c += CycMem
			if dp.Stale() {
				dp = nil // self-modifying store: re-validate the page
			}
		case OpLdb:
			v, f := m.Load8(r.R[rs] + imm)
			if f != nil {
				r.PC = pc
				return cycles + c, retired, Trap{Kind: TrapFault, Fault: *f}
			}
			r.R[rd] = uint32(v)
			c += CycMem
		case OpStb:
			if f := m.Store8(r.R[rs]+imm, byte(r.R[rt])); f != nil {
				r.PC = pc
				return cycles + c, retired, Trap{Kind: TrapFault, Fault: *f}
			}
			c += CycMem
			if dp.Stale() {
				dp = nil
			}
		case OpBeq:
			if r.R[rs] == r.R[rt] {
				next = imm
				c += CycBr
			}
		case OpBne:
			if r.R[rs] != r.R[rt] {
				next = imm
				c += CycBr
			}
		case OpBlt:
			if r.R[rs] < r.R[rt] {
				next = imm
				c += CycBr
			}
		case OpBge:
			if r.R[rs] >= r.R[rt] {
				next = imm
				c += CycBr
			}
		case OpJmp:
			next = imm
			c += CycBr
		case OpCall:
			r.R[LR] = next
			next = imm
			c += CycBr
		case OpCallR:
			r.R[LR] = next
			next = r.R[rs]
			c += CycBr
		case OpRet:
			next = r.R[LR]
			c += CycBr
		default: // decIllegal
			r.PC = pc
			return cycles + CycInstr, retired, Trap{Kind: TrapIllegal}
		}

		pc = next
		cycles += c
		retired++
		if cycles >= maxCycles {
			r.PC = pc
			return cycles, retired, Trap{Kind: TrapNone}
		}
	}
}
