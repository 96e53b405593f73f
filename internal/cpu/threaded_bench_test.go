package cpu

import "testing"

// benchLoop builds the canonical counted loop (Addi/Blt) over n passes.
func benchLoop(n uint32, noBlocks bool) (*fakeMem, Regs) {
	m := newFakeMem(3)
	m.noBlocks = noBlocks
	emitAt(m, 0, Instr{Op: OpMovi, Rd: 6, Imm: 0})
	emitAt(m, 8, Instr{Op: OpMovi, Rd: 5, Imm: n})
	emitAt(m, 16, Instr{Op: OpAddi, Rd: 6, Rs: 6, Imm: 1})
	emitAt(m, 24, Instr{Op: OpBlt, Rs: 6, Rt: 5, Imm: 16})
	emitAt(m, 32, Instr{Op: OpHalt})
	m.resetGens()
	return m, Regs{}
}

// BenchmarkStepNCountedLoop is the cpu-level counterpart of the
// top-level BenchmarkInterpreter: one loop pass (2 instructions) per op,
// fused block tier on.
func BenchmarkStepNCountedLoop(b *testing.B) {
	m, r := benchLoop(uint32(b.N), false)
	b.ResetTimer()
	for {
		if _, _, trap := StepN(&r, m, 1<<62); trap.Kind == TrapHalt {
			break
		}
	}
}

// BenchmarkStepNCountedLoopNoBlocks measures the same loop with the
// threaded-code tier disabled (decode-cache tier only) and reports
// allocations: the disabled path must not allocate.
func BenchmarkStepNCountedLoopNoBlocks(b *testing.B) {
	m, r := benchLoop(uint32(b.N), true)
	b.ReportAllocs()
	b.ResetTimer()
	for {
		if _, _, trap := StepN(&r, m, 1<<62); trap.Kind == TrapHalt {
			break
		}
	}
}
