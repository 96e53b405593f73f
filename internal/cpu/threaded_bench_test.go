package cpu

import "testing"

// benchLoop builds a counted loop over n passes with a carried accumulator
// before the step — gcc's shape, `add r3,r3,r6; addi r6,r6,1; blt r6,r5` —
// so no pass can be fast-forwarded and every one is dispatched.
func benchLoop(n uint32, noBlocks bool) (*fakeMem, Regs) {
	m := newFakeMem(3)
	m.noBlocks = noBlocks
	emitAt(m, 0, Instr{Op: OpMovi, Rd: 6, Imm: 0})
	emitAt(m, 8, Instr{Op: OpMovi, Rd: 5, Imm: n})
	emitAt(m, 16, Instr{Op: OpAdd, Rd: 3, Rs: 3, Rt: 6})
	emitAt(m, 24, Instr{Op: OpAddi, Rd: 6, Rs: 6, Imm: 1})
	emitAt(m, 32, Instr{Op: OpBlt, Rs: 6, Rt: 5, Imm: 16})
	emitAt(m, 40, Instr{Op: OpHalt})
	m.resetGens()
	return m, Regs{}
}

// BenchmarkStepNCountedLoop is the cpu-level counterpart of the
// top-level BenchmarkInterpreter: runLoop's per-pass cost, fused block
// tier on. ns/op is per three-instruction pass.
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
