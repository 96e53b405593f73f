// Command flukebench regenerates the measured tables and figures of the
// paper's evaluation: IPC restart costs (Table 3), application performance
// across the five kernel configurations (Table 5), preemption latency
// (Table 6), per-thread memory overhead (Table 7), the §5.5 null-syscall
// architectural-bias microbenchmark, and the multiprocessor IPC-scaling
// matrix (CPU count x lock model).
//
// By default it runs everything at full scale (the paper's 16 MB memtest
// and multi-megabyte IPC transfers); -fast selects scaled-down workloads
// that finish in a few seconds.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/experiments"
	"repro/internal/workload"
)

// matrix prints the configuration-matrix header for one table: which
// execution models, preemption modes, CPU counts, and lock models the
// experiment sweeps, so a reader can tell at a glance what each row is
// measured against.
func matrix(models, preempts, cpus, lockmodels string) {
	fmt.Printf("configurations: model={%s} x preempt={%s} x cpus={%s} x lockmodel={%s}\n",
		models, preempts, cpus, lockmodels)
}

// paperMatrix is the header for experiments that sweep the paper's five
// uniprocessor configurations (the process model in all three preemption
// modes, the interrupt model in the two it supports).
func paperMatrix() {
	matrix("process,interrupt", "none,partial,full(process only)", "1", "big")
}

func main() {
	fast := flag.Bool("fast", false, "run scaled-down workloads")
	t3 := flag.Bool("table3", false, "run only Table 3")
	t5 := flag.Bool("table5", false, "run only Table 5")
	t6 := flag.Bool("table6", false, "run only Table 6")
	t7 := flag.Bool("table7", false, "run only Table 7")
	nullsys := flag.Bool("nullsys", false, "run only the null-syscall microbenchmark")
	nullrpc := flag.Bool("nullrpc", false, "run only the null-RPC fastpath on/off microbenchmark")
	ablate := flag.Bool("ablate", false, "run only the preemption-parameter ablations")
	driver := flag.Bool("driver", false, "run only the driver-latency extension experiment")
	scaling := flag.Bool("scaling", false, "run only the multiprocessor IPC-scaling matrix")
	crossover := flag.Bool("crossover", false, "run only the 1-64 CPU lock-model crossover sweep (big vs fine)")
	scale := flag.Int("scale", 64, "largest CPU count in the crossover sweep (CI smoke caps this)")
	bandwidth := flag.Bool("bandwidth", false, "run only the bulk-IPC bandwidth sweep (zero-copy vs copy)")
	critpath := flag.Bool("critpath", false, "run only the causal critical-path decomposition (null-RPC and bulk transfers, hop by hop)")
	interp := flag.Bool("interp", false, "run only the interpreter-tier comparison (slow vs decode-cache vs threaded code)")
	netload := flag.Bool("netload", false, "run only the NIC load generator (coalescing x zero-copy modes, then the tuned CPU x lock-model sweep)")
	migrate := flag.Bool("migrate", false, "run only the pre-copy live-migration sweep (working set x write rate x rounds)")
	flag.Parse()

	any := *t3 || *t5 || *t6 || *t7 || *nullsys || *nullrpc || *ablate || *driver || *scaling || *crossover || *bandwidth || *critpath || *interp || *netload || *migrate
	show := func(sel bool) bool { return sel || !any }
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "flukebench:", err)
		os.Exit(1)
	}
	timed := func(name string, fn func()) {
		start := time.Now()
		fn()
		fmt.Printf("(%s regenerated in %.1fs host time)\n\n", name, time.Since(start).Seconds())
	}

	if show(*t3) {
		timed("Table 3", func() {
			rows, err := experiments.Table3()
			if err != nil {
				fail(err)
			}
			matrix("interrupt", "partial", "1", "big")
			fmt.Println(experiments.Table3Render(rows))
			fmt.Println(experiments.Table3MetricsAppendix(rows))
		})
	}
	if show(*t5) {
		timed("Table 5", func() {
			sc := experiments.FullTable5Scale()
			if *fast {
				sc = experiments.FastTable5Scale()
			}
			rows, err := experiments.Table5(sc)
			if err != nil {
				fail(err)
			}
			paperMatrix()
			fmt.Println(experiments.Table5Render(rows))
			fmt.Println(experiments.Table5MetricsAppendix(rows))
		})
	}
	if show(*t6) {
		timed("Table 6", func() {
			sc := workload.DefaultFlukeperfScale()
			if *fast {
				sc = experiments.FastTable5Scale().Flukeperf
			}
			rows, err := experiments.Table6(sc)
			if err != nil {
				fail(err)
			}
			paperMatrix()
			fmt.Println(experiments.Table6Render(rows))
		})
	}
	if show(*t7) {
		timed("Table 7", func() {
			paperMatrix()
			fmt.Println(experiments.Table7Render(experiments.Table7()))
		})
	}
	if show(*nullsys) {
		timed("null-syscall microbenchmark", func() {
			p, i, delta, err := experiments.NullSyscall(20000)
			if err != nil {
				fail(err)
			}
			matrix("process,interrupt", "none", "1", "big")
			fmt.Println(experiments.NullSyscallRender(p, i, delta))
		})
	}
	if show(*nullrpc) {
		timed("null-RPC microbenchmark", func() {
			on, off, drop, err := experiments.NullRPC(20000)
			if err != nil {
				fail(err)
			}
			matrix("process", "none", "1", "big")
			fmt.Println(experiments.NullRPCRender(on, off, drop))
		})
	}
	if *ablate {
		timed("ablations", func() {
			rows, err := experiments.DefaultAblation()
			if err != nil {
				fail(err)
			}
			paperMatrix()
			fmt.Println(experiments.AblationRender(rows))
			cr, err := experiments.ContinuationRecognition()
			if err != nil {
				fail(err)
			}
			fmt.Println(experiments.ContRecRender(cr))
		})
	}
	if *driver {
		timed("driver latency", func() {
			sc := workload.DefaultFlukeperfScale()
			if *fast {
				sc = experiments.FastTable5Scale().Flukeperf
			}
			rows, err := experiments.DriverLatency(sc, 50)
			if err != nil {
				fail(err)
			}
			paperMatrix()
			fmt.Println(experiments.DriverLatencyRender(rows))
		})
	}
	if show(*bandwidth) {
		timed("bulk-IPC bandwidth", func() {
			rows, err := experiments.Bandwidth()
			if err != nil {
				fail(err)
			}
			matrix("process", "none", "1,2,4", "big,fine")
			fmt.Println(experiments.BandwidthRender(rows))
		})
	}
	if show(*critpath) {
		timed("critical path", func() {
			count := 2000
			if *fast {
				count = 200
			}
			matrix("process", "none", "1", "big")
			for _, disable := range []bool{false, true} {
				r, err := experiments.CritPathNullRPC(count, disable)
				if err != nil {
					fail(err)
				}
				fmt.Println(experiments.CritPathRender(r))
			}
			r, err := experiments.CritPathBulk(4, 64)
			if err != nil {
				fail(err)
			}
			fmt.Println(experiments.CritPathRender(r))
		})
	}
	if *interp {
		timed("interpreter tiers", func() {
			iters := 2_000_000
			if *fast {
				iters = 200_000
			}
			rows, err := experiments.InterpreterTiers(iters)
			if err != nil {
				fail(err)
			}
			matrix("process", "none", "1", "big")
			fmt.Println(experiments.InterpreterTiersRender(rows))
		})
	}
	if *crossover {
		timed("lock-model crossover", func() {
			sc := experiments.DefaultCrossoverScale()
			if *fast {
				sc = experiments.FastCrossoverScale()
			}
			var cpus []int
			for _, n := range experiments.CrossoverCPUs {
				if n <= *scale {
					cpus = append(cpus, n)
				}
			}
			rows, err := experiments.LockCrossover(sc, cpus)
			if err != nil {
				fail(err)
			}
			matrix("interrupt", "partial", "1..64", "big,fine")
			fmt.Println(experiments.LockCrossoverRender(rows))
		})
	}
	if *netload {
		timed("netload", func() {
			sc := experiments.DefaultNetloadScale()
			if *fast {
				sc = experiments.FastNetloadScale()
			}
			rep, err := experiments.Netload(sc, experiments.NetloadCPUs, experiments.LockModels)
			if err != nil {
				fail(err)
			}
			matrix("interrupt", "partial", "1,2,4", "big,fine")
			fmt.Println(experiments.NetloadRender(rep))
		})
	}
	if *migrate {
		timed("pre-copy migration", func() {
			rows, err := experiments.Migrate(*fast)
			if err != nil {
				fail(err)
			}
			matrix("process", "none", "1", "big")
			fmt.Println(experiments.MigrateRender(rows))
		})
	}
	if show(*scaling) {
		timed("IPC scaling", func() {
			sc := experiments.DefaultScalingScale()
			if *fast {
				sc = experiments.FastScalingScale()
			}
			rows, err := experiments.IPCScaling(sc, []int{1, 2, 4})
			if err != nil {
				fail(err)
			}
			matrix("interrupt", "partial", "1,2,4", "big,fine")
			fmt.Println(experiments.IPCScalingRender(rows))
		})
	}
}
