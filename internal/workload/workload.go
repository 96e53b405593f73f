// Package workload implements the three applications of the paper's
// Table 5 evaluation — flukeperf, memtest, and gcc — plus the
// high-priority periodic probe thread of Table 6, all as guest programs
// (or kernel threads) running on the simulated Fluke kernel.
package workload

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/dev"
	"repro/internal/obj"
)

// Workload is a configured guest application ready to run on its kernel.
type Workload struct {
	Name string
	K    *core.Kernel
	// Done lists the threads that must exit for the run to count as
	// complete (service threads may run forever).
	Done []*obj.Thread
	// NIC is the simulated network device behind the workload, when it
	// has one (netserve) — the harness reads its counters for the stats
	// line and the dev.nic.* metrics.
	NIC *dev.NIC
	// Check, when set, validates guest-visible results after the run
	// (payload stamps, error counters) — correctness the exit codes
	// alone cannot express.
	Check func() error
}

// Run executes the workload until its Done threads exit (with a
// virtual-cycle budget as a backstop, so a wedged workload reports an
// error instead of hanging — service threads and measurement timers may
// keep the system from ever quiescing on their own) and returns the
// elapsed virtual cycles.
func (w *Workload) Run(budget uint64) (uint64, error) {
	return w.RunPolling(budget, nil)
}

// RunPolling is Run with a hook called at every stop check of the
// scheduler loop — between dispatches, on the simulation goroutine, with
// the kernel at a consistent boundary. The live observation endpoint
// (internal/observe) hangs its snapshot service off this hook; a nil
// poll is exactly Run.
func (w *Workload) RunPolling(budget uint64, poll func()) (uint64, error) {
	start := w.K.Clock.Now()
	end := start + budget
	if end < start {
		end = ^uint64(0)
	}
	allDone := func() bool {
		for _, t := range w.Done {
			if !t.Exited {
				return false
			}
		}
		return true
	}
	w.K.RunUntil(func() bool {
		if poll != nil {
			poll()
		}
		return w.K.Clock.Now() >= end || allDone()
	})
	for _, t := range w.Done {
		if !t.Exited {
			return 0, fmt.Errorf("workload %s: thread %d did not finish (state=%v pc=%#x r0=%d)",
				w.Name, t.ID, t.State, t.Regs.PC, t.Regs.R[0])
		}
	}
	return w.K.Clock.Now() - start, nil
}
