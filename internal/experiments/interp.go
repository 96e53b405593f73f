package experiments

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/mmu"
	"repro/internal/obj"
	"repro/internal/prog"
	"repro/internal/stats"
	"repro/internal/sys"
)

// The interpreter-tier experiment compares the three execution tiers of
// the simulated CPU — the per-instruction slow path, the decode-cache
// fast path, and the threaded-code tier (fused superinstruction blocks)
// — on five guest shapes chosen to stress each tier differently:
//
//   - straight-line: long runs of ALU instructions, the best case for
//     fused blocks (one dispatch amortized over ~30 instructions);
//   - branch-heavy: a taken branch every instruction, so every block is
//     a single instruction plus its terminator — the worst case that
//     still engages the tier;
//   - self-modifying: a store into the executing code page every
//     iteration, invalidating the page's decode slots and fused blocks
//     each time around the loop (the DMA/self-modifying signal);
//   - byte-sweep and word-sweep: memtest's and gcc's inner loops (a load
//     per element, then the induction step and its branch) over a
//     multi-page demand-zero buffer, the array-sweep shape the threaded
//     tier runs as a counted loop with a one-page read window.
//
// The tiers are simulator-side: all three must retire the same guest
// work in exactly the same number of virtual cycles. Only host time may
// differ, and InterpreterTiers enforces that by failing if any tier's
// virtual-cycle count diverges.

// InterpTierNames are the tiers in InterpTierResult.Host order.
var InterpTierNames = [3]string{"slow", "decode-cache", "threaded"}

// InterpTierResult is one guest shape measured under all three tiers.
type InterpTierResult struct {
	Workload string
	Cycles   uint64           // virtual cycles, identical across tiers
	Host     [3]time.Duration // host time per tier, InterpTierNames order
	Exec     cpu.ExecStats    // threaded tier's decode/block counters
}

// interpShapes are the guest shapes, in table order.
var interpShapes = []string{"straight-line", "branch-heavy", "self-modifying", "byte-sweep", "word-sweep"}

// interpProgram builds one of the guest shapes running iters loop
// iterations at scCode; the sweeps walk the scDataSz buffer at scData as
// many whole times as iters elements fill, at least once.
func interpProgram(kind string, iters int) *prog.Builder {
	b := prog.New(scCode)
	switch kind {
	case "straight-line":
		b.Movi(6, 0).Movi(5, uint32(iters)).Movi(1, 1)
		b.Label("loop")
		for i := 0; i < 30; i++ {
			switch i % 3 {
			case 0:
				b.Add(2, 2, 1)
			case 1:
				b.Xor(3, 3, 2)
			case 2:
				b.Addi(4, 4, 5)
			}
		}
		b.Addi(6, 6, 1).Blt(6, 5, "loop").Halt()
	case "branch-heavy":
		b.Movi(6, 0).Movi(5, uint32(iters))
		b.Label("loop")
		for i := 0; i < 8; i++ {
			next := fmt.Sprintf("b%d", i)
			b.Bge(6, 0, next) // always taken, to the next instruction
			b.Label(next)
		}
		b.Addi(6, 6, 1).Blt(6, 5, "loop").Halt()
	case "self-modifying":
		// The store lands inside the executing code page (a scratch word
		// past the last instruction), bumping the page's store generation
		// and invalidating its decode slots and fused blocks every
		// iteration.
		b.Movi(6, 0).Movi(5, uint32(iters))
		b.Label("loop").
			Addi(6, 6, 1).
			St(0, scCode+0xF00, 6).
			Blt(6, 5, "loop").
			Halt()
	case "byte-sweep", "word-sweep":
		elem := uint32(1)
		if kind == "word-sweep" {
			elem = 4
		}
		sweeps := max(1, iters*int(elem)/scDataSz)
		b.Movi(2, 0).
			Label("sweep").
			Movi(6, scData).Movi(5, scData+scDataSz).Movi(3, 0).
			Label("loop")
		if elem == 1 {
			b.Ldb(3, 6, 0) // memtest
		} else {
			b.Ld(1, 6, 0).Mul(3, 3, 1).Add(3, 3, 1) // gcc
		}
		b.Addi(6, 6, elem).Blt(6, 5, "loop").
			Addi(2, 2, 1).Movi(0, uint32(sweeps)).Blt(2, 0, "sweep").
			Halt()
	default:
		panic("unknown interp workload " + kind)
	}
	return b
}

// InterpreterTiers runs every guest shape under all three tiers and
// returns one row per shape. It fails if any tier observes a different
// virtual-cycle count than the slow path — the tiers' core invariant.
func InterpreterTiers(iters int) ([]InterpTierResult, error) {
	tiers := [3]core.Config{
		{Model: core.ModelProcess, DisableFastPath: true},
		{Model: core.ModelProcess, DisableThreadedCode: true},
		{Model: core.ModelProcess},
	}
	var rows []InterpTierResult
	for _, kind := range interpShapes {
		img := interpProgram(kind, iters).MustAssemble()
		row := InterpTierResult{Workload: kind}
		for ti, cfg := range tiers {
			k := core.New(cfg)
			s := k.NewSpace()
			buf := &obj.Region{Header: obj.Header{Type: sys.ObjRegion}, R: mmu.NewRegion(scDataSz, true)}
			k.BindFresh(s, buf)
			if _, err := k.MapInto(s, buf, scData, 0, scDataSz, mmu.PermRW); err != nil {
				return nil, err
			}
			th, err := k.SpawnProgram(s, scCode, img, 8)
			if err != nil {
				return nil, err
			}
			start := k.Clock.Now()
			host := time.Now()
			k.RunFor(runBudget)
			row.Host[ti] = time.Since(host)
			if !th.Exited {
				return nil, fmt.Errorf("interp: %s thread stuck under %s tier at pc=%#x",
					kind, InterpTierNames[ti], th.Regs.PC)
			}
			cycles := k.Clock.Now() - start
			if ti == 0 {
				row.Cycles = cycles
			} else if cycles != row.Cycles {
				return nil, fmt.Errorf("interp: %s tier retired %s in %d virtual cycles, slow path took %d — tiers must be invisible to virtual time",
					InterpTierNames[ti], kind, cycles, row.Cycles)
			}
			if ti == 2 {
				row.Exec = k.ExecStats()
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// InterpreterTiersRender formats the tier comparison: identical virtual
// cycles, host time per tier, the threaded/decode-cache speedup, and the
// threaded tier's block activity (hits, of which counted-loop passes).
func InterpreterTiersRender(rows []InterpTierResult) *stats.Table {
	t := stats.NewTable("Interpreter tiers: host time for identical virtual work (process model)",
		"workload", "virt cycles", "slow", "decode-cache", "threaded", "thr/dec speedup", "block hits", "loop passes", "invalidations")
	for _, r := range rows {
		speed := float64(r.Host[1]) / float64(r.Host[2])
		t.Row(r.Workload, r.Cycles,
			fmt.Sprintf("%.1fms", float64(r.Host[0].Microseconds())/1000),
			fmt.Sprintf("%.1fms", float64(r.Host[1].Microseconds())/1000),
			fmt.Sprintf("%.1fms", float64(r.Host[2].Microseconds())/1000),
			fmt.Sprintf("%.2fx", speed),
			r.Exec.BlockHits, r.Exec.LoopPasses, r.Exec.BlockInvalidations)
	}
	return t
}
