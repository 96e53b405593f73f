package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/mmu"
	"repro/internal/obj"
	"repro/internal/prog"
	"repro/internal/stats"
	"repro/internal/sys"
)

// The multiprocessor scaling experiment: independent client/server RPC
// pairs, each in its own pair of spaces, streaming bulk IPC transfers.
// The total work is fixed; the CPU count and lock model vary. Under the
// big kernel lock every kernel episode serializes in virtual time, so
// adding CPUs buys little; under fine locking the bulk copies run outside
// the object-space lock (ipc_support.go), the pairs' spaces and queues
// have their own lock instances, and simulated throughput scales. This is the classic
// big-lock-vs-fine-grained story told with the kernel's own virtual
// locks, with the contention counters to prove the diagnosis.

// LockModels is the lock-model axis of every multiprocessor sweep
// (scaling, crossover, bandwidth, netload).
var LockModels = []core.LockModel{core.LockBig, core.LockFine}

// ScalingRow is one (CPUs, lock model) cell of the experiment.
type ScalingRow struct {
	CPUs      int
	LockModel core.LockModel
	RPCs      int    // total RPCs completed across all pairs
	Frontier  uint64 // virtual-time frontier at completion (cycles)
	// RPCsPerVirtualMS is simulated throughput: total RPCs per
	// millisecond of virtual time.
	RPCsPerVirtualMS float64
	// Speedup is this cell's throughput relative to the same lock model
	// at one CPU.
	Speedup float64
	Locks   [core.NumLockKinds]core.LockStat
}

// ScalingScale sizes the experiment.
type ScalingScale struct {
	Pairs int // concurrent client/server pairs
	RPCs  int // RPCs per pair
	Words int // words transferred per RPC (the bulk payload)
}

// DefaultScalingScale keeps a full run in the hundreds of milliseconds.
func DefaultScalingScale() ScalingScale { return ScalingScale{Pairs: 4, RPCs: 24, Words: 1024} }

// FastScalingScale is the bench-smoke variant.
func FastScalingScale() ScalingScale { return ScalingScale{Pairs: 2, RPCs: 8, Words: 512} }

const (
	scCode   = 0x0001_0000
	scData   = 0x0004_0000
	scDataSz = 16 * 4096
	scPort   = core.KObjBase + 0x400
	scPset   = core.KObjBase + 0x404
	scRef    = core.KObjBase + 0x408
)

// runScalingCell runs the fixed workload on one kernel configuration and
// returns (total RPCs, frontier, lock stats).
func runScalingCell(cpus int, lm core.LockModel, sc ScalingScale) (ScalingRow, error) {
	row, _, err := runScalingCellK(cpus, lm, sc)
	return row, err
}

// runScalingCellK additionally returns the kernel for stats inspection.
func runScalingCellK(cpus int, lm core.LockModel, sc ScalingScale) (ScalingRow, *core.Kernel, error) {
	cfg := core.Config{
		Model: core.ModelInterrupt, Preempt: core.PreemptPartial,
		NumCPUs: cpus, LockModel: lm,
	}
	return runScalingCellCfg(cfg, sc)
}

// runScalingCellCfg runs the workload on an explicit kernel config (the
// on/off comparisons toggle cfg.DisableIPCFastPath).
func runScalingCellCfg(cfg core.Config, sc ScalingScale) (ScalingRow, *core.Kernel, error) {
	cpus := cfg.NumCPUs
	if cpus == 0 {
		cpus = 1
	}
	lm := cfg.LockModel
	k := core.New(cfg)

	sbuf := uint32(scData + 0x1000)
	rbuf := uint32(scData + 0x2000)
	ebuf := uint32(scData + 0x4000)

	srv := prog.New(scCode)
	srv.Label("echo").
		IPCWaitReceive(ebuf, uint32(sc.Words), scPset).
		Label("echo.loop").
		Movi(4, ebuf).Ld(5, 4, 0).Add(5, 5, 5).St(4, 0, 5).
		IPCReplyWaitReceive(ebuf, 1, scPset, ebuf, uint32(sc.Words)).
		Jmp("echo.loop")
	srvImg := srv.MustAssemble()

	// R7 is the link register (clobbered by every syscall CALL), so the
	// loop bound is reloaded into R5 each iteration, flukeperf-style.
	cli := prog.New(scCode)
	cli.Label("cli").Movi(6, 0).
		Label("cli.loop").
		Movi(4, sbuf).St(4, 0, 6).
		IPCClientConnectSendOverReceive(sbuf, uint32(sc.Words), scRef, rbuf, 1).
		IPCClientDisconnect().
		Addi(6, 6, 1).Movi(5, uint32(sc.RPCs)).
		Blt(6, 5, "cli.loop").
		Halt()
	cliImg := cli.MustAssemble()

	mkSpace := func() (*obj.Space, error) {
		s := k.NewSpace()
		r, err := k.NewBoundRegion(s, core.KObjBase+0x900, scDataSz, true)
		if err != nil {
			return nil, err
		}
		if _, err := k.MapInto(s, r, scData, 0, scDataSz, mmu.PermRW); err != nil {
			return nil, err
		}
		return s, nil
	}

	var clients []*obj.Thread
	for p := 0; p < sc.Pairs; p++ {
		ss, err := mkSpace()
		if err != nil {
			return ScalingRow{}, nil, err
		}
		cs, err := mkSpace()
		if err != nil {
			return ScalingRow{}, nil, err
		}
		po, _ := obj.New(sys.ObjPort)
		pso, _ := obj.New(sys.ObjPortset)
		port := po.(*obj.Port)
		ps := pso.(*obj.Portset)
		if err := k.Bind(ss, scPort, port); err != nil {
			return ScalingRow{}, nil, err
		}
		if err := k.Bind(ss, scPset, ps); err != nil {
			return ScalingRow{}, nil, err
		}
		ps.AddPort(port)
		ref := &obj.Ref{Header: obj.Header{Type: sys.ObjRef}, Target: port}
		if err := k.Bind(cs, scRef, ref); err != nil {
			return ScalingRow{}, nil, err
		}
		if _, err := k.LoadImage(ss, scCode, srvImg); err != nil {
			return ScalingRow{}, nil, err
		}
		if _, err := k.LoadImage(cs, scCode, cliImg); err != nil {
			return ScalingRow{}, nil, err
		}
		st := k.NewThread(ss, 12)
		st.Regs.PC = srv.Addr("echo")
		k.StartThread(st)
		ct := k.NewThread(cs, 10)
		ct.Regs.PC = cli.Addr("cli")
		k.StartThread(ct)
		clients = append(clients, ct)
	}

	// Stop as soon as every client has exited: the frontier then measures
	// the RPC work itself, not the idle drain to the last armed slice
	// timer (a fixed ~one-quantum tail that would dilute the comparison).
	k.RunUntil(func() bool {
		for _, ct := range clients {
			if !ct.Exited {
				return false
			}
		}
		return true
	})
	for i, ct := range clients {
		if !ct.Exited {
			return ScalingRow{}, nil, fmt.Errorf("scaling: pair %d client stuck (cpus=%d lm=%v pc=%#x)",
				i, cpus, lm, ct.Regs.PC)
		}
	}
	total := sc.Pairs * sc.RPCs
	frontier := k.Now()
	row := ScalingRow{
		CPUs: cpus, LockModel: lm, RPCs: total, Frontier: frontier,
		RPCsPerVirtualMS: float64(total) / (float64(frontier) / 200_000.0),
		Locks:            k.LockStats(),
	}
	return row, k, nil
}

// IPCScalingCell runs a single (CPUs, lock model) cell — the benchmark
// entry point. Speedup is left zero; only the matrix driver can relate
// cells to their 1-CPU base.
func IPCScalingCell(cpus int, lm core.LockModel, sc ScalingScale) (ScalingRow, error) {
	return runScalingCell(cpus, lm, sc)
}

// IPCScaling runs the scaling matrix: cpus × both lock models, fixed
// total work. Speedups are computed against the 1-CPU cell of the same
// lock model.
func IPCScaling(sc ScalingScale, cpusList []int) ([]ScalingRow, error) {
	if len(cpusList) == 0 {
		cpusList = []int{1, 2, 4}
	}
	var rows []ScalingRow
	base := map[core.LockModel]float64{}
	for _, lm := range LockModels {
		for _, n := range cpusList {
			row, err := runScalingCell(n, lm, sc)
			if err != nil {
				return nil, err
			}
			if n == 1 {
				base[lm] = row.RPCsPerVirtualMS
			}
			if b := base[lm]; b > 0 {
				row.Speedup = row.RPCsPerVirtualMS / b
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// IPCScalingRender formats the matrix with the contention evidence.
func IPCScalingRender(rows []ScalingRow) *stats.Table {
	t := stats.NewTable("Parallel IPC pairs: simulated throughput by CPU count and lock model",
		"CPUs", "Lock model", "RPCs/virtual-ms", "speedup", "contended acquires", "lock wait kcycles")
	for _, r := range rows {
		var contended, wait uint64
		for _, ls := range r.Locks {
			contended += ls.Contended
			wait += ls.WaitCycles
		}
		t.Row(r.CPUs, r.LockModel.String(), r.RPCsPerVirtualMS, r.Speedup,
			contended, float64(wait)/1000)
	}
	return t
}
