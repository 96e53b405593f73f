package cpu

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/mem"
)

// fakeMem is a flat DecodedSource covering [0, size): a stand-in for the
// MMU that mimics its contract — stores bump the page frame's store
// generation, DecodedPageFor revalidates against it, misaligned or
// out-of-range accesses fault, and every successful access refills a small
// software TLB whose hits the fused blocks then take inline.
type fakeMem struct {
	data     []byte
	frames   []*mem.Frame // one per page; Data aliases data
	pages    []*DecodedPage
	tlb      TLB
	roTLB    bool // refill slots without write, as armed dirty tracking does
	noFast   bool // no decoded pages and no TLB refills
	noBlocks bool
	exec     ExecStats
}

// fakeTLBSlots is small so pages evict each other's slots.
const fakeTLBSlots = 4

func newFakeMem(pages int) *fakeMem {
	m := &fakeMem{
		data:   make([]byte, pages*mem.PageSize),
		frames: make([]*mem.Frame, pages),
		pages:  make([]*DecodedPage, pages),
		tlb:    TLB{Slots: make([]TLBEntry, fakeTLBSlots), Mask: fakeTLBSlots - 1},
	}
	for p := range m.frames {
		m.frames[p] = &mem.Frame{PFN: uint32(p), Data: m.data[p*mem.PageSize : (p+1)*mem.PageSize]}
	}
	return m
}

func (m *fakeMem) clone() *fakeMem {
	c := newFakeMem(len(m.frames))
	copy(c.data, m.data)
	c.roTLB = m.roTLB
	return c
}

// resetGens zeroes the store generations after program loading so the
// image itself does not look self-modified.
func (m *fakeMem) resetGens() {
	for _, f := range m.frames {
		f.Gen = 0
	}
}

// flushTLB empties every slot: the next access of each page misses.
func (m *fakeMem) flushTLB() { clear(m.tlb.Slots) }

// refill installs va's translation after a successful Memory access.
func (m *fakeMem) refill(va uint32) {
	if m.noFast {
		return
	}
	perm := uint8(TLBRead | TLBWrite | TLBExec)
	if m.roTLB {
		perm &^= TLBWrite
	}
	vpn := va >> mem.PageShift
	m.tlb.Slots[vpn&m.tlb.Mask] = TLBEntry{VPN: vpn, Perm: perm, Frame: m.frames[vpn]}
}

func (m *fakeMem) fault(va uint32, acc Access) *Fault { return &Fault{VA: va, Access: acc} }

func (m *fakeMem) Load32(va uint32) (uint32, *Fault) {
	if va%4 != 0 || int(va)+4 > len(m.data) {
		return 0, m.fault(va, Read)
	}
	m.refill(va)
	d := m.data[va:]
	return uint32(d[0]) | uint32(d[1])<<8 | uint32(d[2])<<16 | uint32(d[3])<<24, nil
}

func (m *fakeMem) Store32(va uint32, v uint32) *Fault {
	if va%4 != 0 || int(va)+4 > len(m.data) {
		return m.fault(va, Write)
	}
	m.refill(va)
	m.frames[va/mem.PageSize].Gen++
	d := m.data[va:]
	d[0], d[1], d[2], d[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
	return nil
}

func (m *fakeMem) Load8(va uint32) (byte, *Fault) {
	if int(va) >= len(m.data) {
		return 0, m.fault(va, Read)
	}
	m.refill(va)
	return m.data[va], nil
}

func (m *fakeMem) Store8(va uint32, v byte) *Fault {
	if int(va) >= len(m.data) {
		return m.fault(va, Write)
	}
	m.refill(va)
	m.frames[va/mem.PageSize].Gen++
	m.data[va] = v
	return nil
}

func (m *fakeMem) Fetch32(va uint32) (uint32, *Fault) {
	if va%4 != 0 || int(va)+4 > len(m.data) {
		return 0, m.fault(va, Exec)
	}
	m.refill(va)
	d := m.data[va:]
	return uint32(d[0]) | uint32(d[1])<<8 | uint32(d[2])<<16 | uint32(d[3])<<24, nil
}

func (m *fakeMem) DecodedPageFor(pc uint32) *DecodedPage {
	if m.noFast {
		return nil
	}
	vpn := int(pc / mem.PageSize)
	if vpn >= len(m.pages) {
		return nil
	}
	p := m.pages[vpn]
	if p == nil {
		p = new(DecodedPage)
		p.Reset(&m.frames[vpn].Gen)
		m.exec.PagesDecoded++
		m.pages[vpn] = p
	} else if p.Stale() {
		m.exec.BlockInvalidations += uint64(p.BuiltBlocks())
		p.Reset(&m.frames[vpn].Gen)
		m.exec.PagesDecoded++
		m.exec.StaleResets++
	}
	p.NoBlocks = m.noBlocks
	return p
}

func (m *fakeMem) TLB() TLB { return m.tlb }

func (m *fakeMem) ExecStats() *ExecStats { return &m.exec }

// stepRef runs the reference per-instruction loop with the same budget
// semantics as StepN.
func stepRef(r *Regs, m Memory, maxCycles uint64) (uint64, uint64, Trap) {
	var cycles, retired uint64
	for {
		cyc, trap := Step(r, m)
		cycles += cyc
		if trap.Kind != TrapNone {
			return cycles, retired, trap
		}
		retired++
		if cycles >= maxCycles {
			return cycles, retired, Trap{Kind: TrapNone}
		}
	}
}

// genProgram fills the first two pages with a random but loop-heavy
// instruction mix: ALU ops, in-range branches, loads/stores into the data
// page (and occasionally the code pages — self-modifying), and rare jumps
// to syscall entries or bad opcodes.
func genProgram(m *fakeMem, rng *rand.Rand) {
	codeWords := 2 * mem.PageSize / InstrSize
	dataBase := uint32(2 * mem.PageSize)
	for i := 0; i < codeWords; i++ {
		pc := uint32(i * InstrSize)
		var in Instr
		switch p := rng.Intn(100); {
		case p < 45: // ALU
			in = Instr{
				Op: []Opcode{OpMovi, OpMov, OpAdd, OpSub, OpAnd, OpOr, OpXor, OpShl, OpShr, OpMul, OpAddi}[rng.Intn(11)],
				Rd: rng.Intn(NumRegs), Rs: rng.Intn(NumRegs), Rt: rng.Intn(NumRegs),
				Imm: rng.Uint32() % 1024,
			}
		case p < 70: // branch within the code pages, 8-aligned
			in = Instr{
				Op: []Opcode{OpBeq, OpBne, OpBlt, OpBge, OpJmp, OpCall, OpRet}[rng.Intn(7)],
				Rs: rng.Intn(NumRegs), Rt: rng.Intn(NumRegs),
				Imm: uint32(rng.Intn(codeWords)) * InstrSize,
			}
		case p < 90: // memory traffic in the data page
			in = Instr{
				Op: []Opcode{OpLd, OpSt, OpLdb, OpStb}[rng.Intn(4)],
				Rd: rng.Intn(NumRegs), Rs: 0, Rt: rng.Intn(NumRegs),
				Imm: dataBase + uint32(rng.Intn(mem.PageSize/4))*4,
			}
		case p < 94: // self-modifying word or byte store into the code pages
			in = Instr{Op: []Opcode{OpSt, OpStb}[rng.Intn(2)], Rs: 0, Rt: rng.Intn(NumRegs),
				Imm: uint32(rng.Intn(codeWords)) * InstrSize}
		case p < 96: // syscall entry
			in = Instr{Op: OpJmp, Imm: SyscallEntry(rng.Intn(MaxSyscalls))}
		case p < 98: // illegal
			in = Instr{Op: opMax + Opcode(rng.Intn(10))}
		default: // halt / brk
			in = Instr{Op: []Opcode{OpHalt, OpBrk}[rng.Intn(2)]}
		}
		w0, imm := in.Encode()
		m.Store32(pc, w0)
		m.Store32(pc+4, imm)
	}
	m.resetGens()
}

// TestStepNEquivalenceFuzz: StepN must be observably identical to the
// per-instruction Step loop — same registers, memory, cycles, retirements
// and trap — over random programs and budgets. The generated programs
// include self-modifying stores into the executing code pages (4% of
// instructions), so fused-block invalidation mid-block is fuzzed here,
// not just unit-tested; between batches, random DMA-style writes mutate
// code bytes directly and bump the store generation, the same signal
// device DMA and frame recycling raise. Fused blocks read and write
// through the fast side's TLB, which some batches start with empty and odd
// seeds refill without write permission, so stores miss it as they do on
// a dirty-tracked page.
func TestStepNEquivalenceFuzz(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		proto := newFakeMem(3)
		proto.roTLB = seed%2 == 1
		genProgram(proto, rng)
		var protoRegs Regs
		for i := range protoRegs.R {
			protoRegs.R[i] = rng.Uint32() % 256
		}

		// Drive repeated batches, as runThread would, so decode caches
		// persist across StepN calls.
		mFast, mRef := proto.clone(), proto.clone()
		rFast, rRef := protoRegs, protoRegs
		for round := 0; round < 20; round++ {
			if rng.Intn(4) == 0 {
				// DMA write to a code page: bytes change without a CPU
				// store. The fast side must see the generation bump and
				// drop decoded slots and fused blocks.
				va := uint32(rng.Intn(2*mem.PageSize)) &^ 3
				w := rng.Uint32()
				for i, b := range []byte{byte(w), byte(w >> 8), byte(w >> 16), byte(w >> 24)} {
					mFast.data[va+uint32(i)] = b
					mRef.data[va+uint32(i)] = b
				}
				mFast.frames[va/mem.PageSize].Gen++
				mRef.frames[va/mem.PageSize].Gen++
			}
			if rng.Intn(3) == 0 {
				mFast.flushTLB()
			}
			budget := uint64(1 + rng.Intn(4000))
			fc, fr, ft := StepN(&rFast, mFast, budget)
			rc, rr, rt := stepRef(&rRef, mRef, budget)
			if fc != rc || fr != rr || ft != rt {
				t.Fatalf("seed %d round %d: (cycles,retired,trap) fast=(%d,%d,%+v) ref=(%d,%d,%+v)",
					seed, round, fc, fr, ft, rc, rr, rt)
			}
			if rFast != rRef {
				t.Fatalf("seed %d round %d: registers diverge\nfast: %+v\nref:  %+v", seed, round, rFast, rRef)
			}
			if !bytes.Equal(mFast.data, mRef.data) {
				t.Fatalf("seed %d round %d: memory diverges", seed, round)
			}
			if ft.Kind == TrapHalt || ft.Kind == TrapIllegal || ft.Kind == TrapFault {
				break // terminal for this PC; next seed
			}
			if ft.Kind == TrapSyscall {
				// Pretend the kernel completed the call: resume past it.
				rFast.PC, rRef.PC = rFast.R[LR], rRef.R[LR]
				if rFast.PC%InstrSize != 0 {
					break
				}
			}
		}
	}
}

// TestStepNSelfModifyingCode: a store that overwrites an already-executed
// (and therefore cached) instruction must invalidate the decode so the
// next execution sees the new instruction.
func TestStepNSelfModifyingCode(t *testing.T) {
	m := newFakeMem(3)
	// Target instruction at 0x40, initially "movi r3, 1".
	tw0, _ := Instr{Op: OpMovi, Rd: 3, Imm: 1}.Encode()
	m.Store32(0x40, tw0)
	m.Store32(0x44, 1)
	// Replacement: "movi r3, 2".
	nw0, _ := Instr{Op: OpMovi, Rd: 3, Imm: 2}.Encode()

	pc := uint32(0)
	emit := func(in Instr) {
		w0, imm := in.Encode()
		m.Store32(pc, w0)
		m.Store32(pc+4, imm)
		pc += InstrSize
	}
	emit(Instr{Op: OpCall, Imm: 0x40})             // execute target once (caches it), returns to 8
	emit(Instr{Op: OpMovi, Rd: 1, Imm: nw0})       // r1 = new word0
	emit(Instr{Op: OpMovi, Rd: 2, Imm: 2})         // r2 = new imm
	emit(Instr{Op: OpSt, Rs: 0, Rt: 1, Imm: 0x40}) // overwrite word0
	emit(Instr{Op: OpSt, Rs: 0, Rt: 2, Imm: 0x44}) // overwrite imm
	emit(Instr{Op: OpCall, Imm: 0x40})             // re-execute target
	emit(Instr{Op: OpHalt})
	// The called instruction at 0x40 falls through to 0x48: a Ret there.
	m.Store32(0x48, func() uint32 { w0, _ := Instr{Op: OpRet}.Encode(); return w0 }())

	ref := m.clone() // pristine image for the per-instruction reference

	var r Regs
	cycles, retired, trap := StepN(&r, m, 1<<20)
	if trap.Kind != TrapHalt {
		t.Fatalf("trap = %+v, want halt", trap)
	}
	if r.R[3] != 2 {
		t.Fatalf("r3 = %d: stale decoded instruction executed after overwrite", r.R[3])
	}

	var rRef Regs
	refCycles, refRetired, refTrap := stepRef(&rRef, ref, 1<<20)
	if refTrap.Kind != TrapHalt || rRef != r || refCycles != cycles || refRetired != retired {
		t.Fatalf("fast/slow diverge on self-modifying code:\nfast: %+v cyc=%d ret=%d trap=%+v\nref:  %+v cyc=%d ret=%d trap=%+v",
			r, cycles, retired, trap, rRef, refCycles, refRetired, refTrap)
	}
	if !bytes.Equal(m.data, ref.data) {
		t.Fatal("memory diverges after self-modifying run")
	}
}
