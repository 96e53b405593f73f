package experiments

import (
	"repro/internal/core"
	"repro/internal/stats"
)

// The lock-model crossover study (ROADMAP item: Elphinstone et al.'s
// coarse- vs fine-grained locking evaluation retold on Fluke's atomic
// API). The scaling matrix (scaling.go) stops at 4 CPUs with fixed
// work; this sweep pushes to 64 CPUs with work that grows with the
// machine (pairs = CPU count), so the figure of merit is simulated
// throughput, not fixed-work runtime: the big lock flattens at once,
// and the fine model — per-run-queue and per-space lock instances —
// keeps scaling because cross-CPU wakes and disjoint spaces never
// funnel through a global lock. (The first run of this sweep carried a
// third curve, for a since-deleted per-subsystem lock model.)

// CrossoverRow is one (workload, CPUs, lock model) cell.
type CrossoverRow struct {
	Workload  string // "ipc-pairs" (bulk payload) or "null-rpc"
	CPUs      int
	LockModel core.LockModel
	RPCs      int    // total RPCs completed across all pairs
	Frontier  uint64 // virtual-time frontier at completion (cycles)
	// RPCsPerVirtualMS is simulated throughput: total RPCs per
	// millisecond of virtual time.
	RPCsPerVirtualMS float64
	// Speedup is this cell's throughput relative to the same workload
	// and lock model at one CPU.
	Speedup float64
	// Contended / WaitKCycles aggregate the virtual-lock evidence.
	Contended   uint64
	WaitKCycles float64
}

// CrossoverScale sizes the sweep. Pairs are not a knob: each cell runs
// one client/server pair per CPU (minimum two), so utilization is
// comparable at every machine size.
type CrossoverScale struct {
	RPCs  int // RPCs per pair
	Words int // words per transfer in the bulk ipc-pairs workload
}

// DefaultCrossoverScale keeps the full 64-CPU sweep in tens of seconds.
func DefaultCrossoverScale() CrossoverScale { return CrossoverScale{RPCs: 16, Words: 1024} }

// FastCrossoverScale is the CI-smoke variant.
func FastCrossoverScale() CrossoverScale { return CrossoverScale{RPCs: 6, Words: 256} }

// CrossoverCPUs is the full sweep's CPU axis.
var CrossoverCPUs = []int{1, 2, 4, 8, 16, 32, 64}

// crossoverWorkloads: the bulk parallel-IPC-pairs workload stresses the
// data path (copies overlap outside the object lock under fine);
// null-RPC (a 1-word payload) is pure control path, where the
// per-instance locks are the whole difference.
func crossoverWorkloads(sc CrossoverScale) []struct {
	Name  string
	Words int
} {
	return []struct {
		Name  string
		Words int
	}{
		{"ipc-pairs", sc.Words},
		{"null-rpc", 1},
	}
}

// LockCrossover runs the sweep: workloads × lock models × cpusList, on
// the deterministic interleaver (the virtual-time contention model is
// the object of study; ParallelHost measures host wall-clock instead).
func LockCrossover(sc CrossoverScale, cpusList []int) ([]CrossoverRow, error) {
	if len(cpusList) == 0 {
		cpusList = CrossoverCPUs
	}
	var rows []CrossoverRow
	for _, wl := range crossoverWorkloads(sc) {
		for _, lm := range LockModels {
			base := 0.0
			for _, n := range cpusList {
				pairs := n
				if pairs < 2 {
					pairs = 2
				}
				cfg := core.Config{
					Model: core.ModelInterrupt, Preempt: core.PreemptPartial,
					NumCPUs: n, LockModel: lm,
				}
				cell, _, err := runScalingCellCfg(cfg, ScalingScale{
					Pairs: pairs, RPCs: sc.RPCs, Words: wl.Words,
				})
				if err != nil {
					return nil, err
				}
				var contended, wait uint64
				for _, ls := range cell.Locks {
					contended += ls.Contended
					wait += ls.WaitCycles
				}
				row := CrossoverRow{
					Workload: wl.Name, CPUs: n, LockModel: lm,
					RPCs: cell.RPCs, Frontier: cell.Frontier,
					RPCsPerVirtualMS: cell.RPCsPerVirtualMS,
					Contended:        contended,
					WaitKCycles:      float64(wait) / 1000,
				}
				if n == cpusList[0] && cpusList[0] == 1 {
					base = row.RPCsPerVirtualMS
				}
				if base > 0 {
					row.Speedup = row.RPCsPerVirtualMS / base
				}
				rows = append(rows, row)
			}
		}
	}
	return rows, nil
}

// LockCrossoverRender formats the sweep, one table section per workload.
func LockCrossoverRender(rows []CrossoverRow) *stats.Table {
	t := stats.NewTable("Lock-model crossover: simulated throughput, 1-64 CPUs x {big, fine}",
		"workload", "CPUs", "Lock model", "RPCs/virtual-ms", "speedup", "contended acquires", "lock wait kcycles")
	for _, r := range rows {
		t.Row(r.Workload, r.CPUs, r.LockModel.String(), r.RPCsPerVirtualMS, r.Speedup,
			r.Contended, r.WaitKCycles)
	}
	return t
}
