package experiments

import (
	"fmt"
	"io"
	"time"

	"repro/internal/workload"
)

// Options are the run-wide settings every table's run function reads.
type Options struct {
	Fast  bool // scaled-down workloads that finish in seconds
	Scale int  // largest CPU count in the crossover sweep
}

// table5 is the scale Table 5 runs at.
func (o Options) table5() Table5Scale {
	if o.Fast {
		return FastTable5Scale()
	}
	return FullTable5Scale()
}

// flukeperf is the flukeperf scale Table 6 and the driver table run at.
func (o Options) flukeperf() workload.FlukeperfScale {
	if o.Fast {
		return FastTable5Scale().Flukeperf
	}
	return workload.DefaultFlukeperfScale()
}

// Matrix names the configurations a table sweeps: which execution
// models, preemption modes, CPU counts and lock models its rows are
// measured against.
type Matrix struct{ Models, Preempts, CPUs, LockModels string }

func (m Matrix) String() string {
	return fmt.Sprintf("configurations: model={%s} x preempt={%s} x cpus={%s} x lockmodel={%s}",
		m.Models, m.Preempts, m.CPUs, m.LockModels)
}

// paperMatrix is the paper's five uniprocessor configurations: the
// process model in all three preemption modes, the interrupt model in the
// two it supports.
var paperMatrix = Matrix{"process,interrupt", "none,partial,full(process only)", "1", "big"}

// Table is one table cmd/flukebench regenerates.
type Table struct {
	Name         string // flag name: flukebench -<Name>
	Help         string // flag help text
	Title        string // what the host-time footer calls the table
	Default      bool   // runs when no table is selected
	HostMeasured bool   // values are host timings, so two runs differ
	Matrix       Matrix
	Run          func(w io.Writer, o Options) error // prints the body
}

// Write prints the table as flukebench does: the configurations header,
// the body, and a footer line with the host time the run took. Every
// other line is virtual-time output, exact per seed unless HostMeasured.
func (t Table) Write(w io.Writer, o Options) error {
	start := time.Now()
	fmt.Fprintln(w, t.Matrix)
	if err := t.Run(w, o); err != nil {
		return err
	}
	fmt.Fprintf(w, "(%s regenerated in %.1fs host time)\n\n", t.Title, time.Since(start).Seconds())
	return nil
}

// render adapts an experiment and the renderers that print its result,
// one after another, to a Table's Run.
func render[R, S any](run func(o Options) (R, error), views ...func(R) S) func(io.Writer, Options) error {
	return func(w io.Writer, o Options) error {
		r, err := run(o)
		if err != nil {
			return err
		}
		for _, view := range views {
			fmt.Fprintln(w, view(r))
		}
		return nil
	}
}

// Tables lists every flukebench table in the order it prints them. It is
// a function, not a variable, so that a binary which never calls it (the
// benchmark links this package for a few cells) does not link every
// experiment.
func Tables() []Table {
	return []Table{
		{
			Name: "table3", Help: "run only Table 3", Title: "Table 3", Default: true,
			Matrix: Matrix{"process", "none", "1", "big"},
			Run: render(func(Options) ([]Table3Row, error) { return Table3() },
				Table3Render, Table3MetricsAppendix),
		},
		{
			Name: "table5", Help: "run only Table 5", Title: "Table 5", Default: true,
			Matrix: paperMatrix,
			Run: render(func(o Options) ([]Table5Result, error) { return Table5(o.table5()) },
				Table5Render, Table5MetricsAppendix),
		},
		{
			Name: "table6", Help: "run only Table 6", Title: "Table 6", Default: true,
			Matrix: paperMatrix,
			Run:    render(func(o Options) ([]Table6Row, error) { return Table6(o.flukeperf()) }, Table6Render),
		},
		{
			Name: "table7", Help: "run only Table 7", Title: "Table 7", Default: true,
			Matrix: paperMatrix,
			Run:    render(func(Options) ([]Table7Row, error) { return Table7(), nil }, Table7Render),
		},
		{
			Name: "nullsys", Help: "run only the null-syscall microbenchmark",
			Title: "null-syscall microbenchmark", Default: true,
			Matrix: Matrix{"process,interrupt", "none", "1", "big"},
			Run: func(w io.Writer, o Options) error {
				p, i, delta, err := NullSyscall(20000)
				if err == nil {
					fmt.Fprintln(w, NullSyscallRender(p, i, delta))
				}
				return err
			},
		},
		{
			Name: "nullrpc", Help: "run only the null-RPC fastpath on/off microbenchmark",
			Title: "null-RPC microbenchmark", Default: true,
			Matrix: Matrix{"process", "none", "1", "big"},
			Run: func(w io.Writer, o Options) error {
				on, off, drop, err := NullRPC(20000)
				if err == nil {
					fmt.Fprintln(w, NullRPCRender(on, off, drop))
				}
				return err
			},
		},
		{
			Name: "ablate", Help: "run only the preemption-parameter ablations", Title: "ablations",
			Matrix: paperMatrix,
			Run: func(w io.Writer, o Options) error {
				rows, err := DefaultAblation()
				if err != nil {
					return err
				}
				fmt.Fprintln(w, AblationRender(rows))
				cr, err := ContinuationRecognition()
				if err == nil {
					fmt.Fprintln(w, ContRecRender(cr))
				}
				return err
			},
		},
		{
			Name: "driver", Help: "run only the driver-latency extension experiment", Title: "driver latency",
			Matrix: paperMatrix,
			Run: render(func(o Options) ([]DriverLatRow, error) { return DriverLatency(o.flukeperf(), 50) },
				DriverLatencyRender),
		},
		{
			Name: "bandwidth", Help: "run only the bulk-IPC bandwidth sweep (zero-copy vs copy)",
			Title: "bulk-IPC bandwidth", Default: true,
			Matrix: Matrix{"process", "none", "1,2,4", "big,fine"},
			Run:    render(func(Options) ([]BandwidthResult, error) { return Bandwidth() }, BandwidthRender),
		},
		{
			Name: "critpath", Help: "run only the causal critical-path decomposition (null-RPC and bulk transfers, hop by hop)",
			Title: "critical path", Default: true,
			Matrix: Matrix{"process", "none", "1", "big"},
			Run: func(w io.Writer, o Options) error {
				count := 2000
				if o.Fast {
					count = 200
				}
				for _, disable := range []bool{false, true} {
					r, err := CritPathNullRPC(count, disable)
					if err != nil {
						return err
					}
					fmt.Fprintln(w, CritPathRender(r))
				}
				r, err := CritPathBulk(4, 64)
				if err == nil {
					fmt.Fprintln(w, CritPathRender(r))
				}
				return err
			},
		},
		{
			Name: "interp", Help: "run only the interpreter-tier comparison (slow vs decode-cache vs threaded code)",
			Title: "interpreter tiers", HostMeasured: true,
			Matrix: Matrix{"process", "none", "1", "big"},
			Run: render(func(o Options) ([]InterpTierResult, error) {
				if o.Fast {
					return InterpreterTiers(200_000)
				}
				return InterpreterTiers(2_000_000)
			}, InterpreterTiersRender),
		},
		{
			Name: "crossover", Help: "run only the 1-64 CPU lock-model crossover sweep (big vs fine)",
			Title:  "lock-model crossover",
			Matrix: Matrix{"interrupt", "partial", "1..64", "big,fine"},
			Run: render(func(o Options) ([]CrossoverRow, error) {
				if o.Scale < 1 {
					// No CPU count qualifies, and LockCrossover reads an
					// empty list as the whole sweep.
					return nil, fmt.Errorf("crossover: scale %d is below 1 CPU", o.Scale)
				}
				sc := DefaultCrossoverScale()
				if o.Fast {
					sc = FastCrossoverScale()
				}
				var cpus []int
				for _, n := range CrossoverCPUs {
					if n <= o.Scale {
						cpus = append(cpus, n)
					}
				}
				return LockCrossover(sc, cpus)
			}, LockCrossoverRender),
		},
		{
			Name: "netload", Help: "run only the NIC load generator (coalescing x zero-copy modes, then the tuned CPU x lock-model sweep)",
			Title:  "netload",
			Matrix: Matrix{"interrupt", "partial", "1,2,4", "big,fine"},
			Run: render(func(o Options) (*NetloadReport, error) {
				sc := DefaultNetloadScale()
				if o.Fast {
					sc = FastNetloadScale()
				}
				return Netload(sc, NetloadCPUs, LockModels)
			}, NetloadRender),
		},
		{
			Name: "migrate", Help: "run only the pre-copy live-migration sweep (working set x write rate x rounds)",
			Title:  "pre-copy migration",
			Matrix: Matrix{"process", "none", "1", "big"},
			Run:    render(func(o Options) ([]MigrateResult, error) { return Migrate(o.Fast) }, MigrateRender),
		},
		{
			Name: "scaling", Help: "run only the multiprocessor IPC-scaling matrix", Title: "IPC scaling", Default: true,
			Matrix: Matrix{"interrupt", "partial", "1,2,4", "big,fine"},
			Run: render(func(o Options) ([]ScalingRow, error) {
				sc := DefaultScalingScale()
				if o.Fast {
					sc = FastScalingScale()
				}
				return IPCScaling(sc, []int{1, 2, 4})
			}, IPCScalingRender),
		},
	}
}
