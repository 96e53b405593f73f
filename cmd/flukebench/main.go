// Command flukebench regenerates the measured tables and figures of the
// paper's evaluation: IPC restart costs (Table 3), application performance
// across the five kernel configurations (Table 5), preemption latency
// (Table 6), per-thread memory overhead (Table 7), the §5.5 null-syscall
// architectural-bias microbenchmark, and the extension tables (null-RPC
// fast path, bulk-IPC bandwidth, critical paths, multiprocessor IPC
// scaling, ablations, driver latency, interpreter tiers, the lock-model
// crossover, the NIC load generator and pre-copy migration).
//
// Each table has a flag that selects it, and the tables run in the order
// internal/experiments.Tables lists them. With no table selected it runs
// the nine default tables (Tables 3, 5, 6 and 7, null-syscall, null-RPC,
// bandwidth, critical path and IPC scaling). Runs are at full scale (the
// paper's 16 MB memtest and multi-megabyte IPC transfers) unless -fast
// selects scaled-down workloads that finish in a few seconds.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/experiments"
)

func main() {
	var o experiments.Options
	flag.BoolVar(&o.Fast, "fast", false, "run scaled-down workloads")
	flag.IntVar(&o.Scale, "scale", 64, "largest CPU count in the crossover sweep")
	tables := experiments.Tables()
	selected := make([]*bool, len(tables))
	for i, t := range tables {
		selected[i] = flag.Bool(t.Name, false, t.Help)
	}
	flag.Parse()

	any := false
	for _, s := range selected {
		any = any || *s
	}
	for i, t := range tables {
		if *selected[i] || (!any && t.Default) {
			if err := t.Write(os.Stdout, o); err != nil {
				fmt.Fprintln(os.Stderr, "flukebench:", err)
				os.Exit(1)
			}
		}
	}
}
