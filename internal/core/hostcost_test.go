package core_test

// Guards on the host cost of a kernel entry: the virtual-lock ring scan
// stays off the uniprocessor path, and the steady-state system call and
// context switch allocate nothing.

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/workload"
)

// TestUniprocessorNeverScansLockRing pins the O(1) acquire where it
// matters most: with one CPU the same clock publishes and tests every
// hold, so no acquire of a flukeperf run — syscalls, faults, context
// switches, blocking releases and reacquires — may fall back to the ring
// scan, under any lock model.
func TestUniprocessorNeverScansLockRing(t *testing.T) {
	run := func(t *testing.T, cfg core.Config) (scans, acquires uint64) {
		k := core.New(cfg)
		defer k.Shutdown()
		w, err := workload.NewFlukeperf(k, workload.SmallFlukeperfScale())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.Run(1 << 40); err != nil {
			t.Fatal(err)
		}
		for _, ls := range k.LockStats() {
			acquires += ls.Acquires
		}
		return k.LockScans(), acquires
	}
	for _, cfg := range core.Configurations() {
		for _, lm := range lockModels {
			cfg := cfg
			cfg.NumCPUs, cfg.LockModel = 1, lm
			t.Run(fmt.Sprintf("%s/lockmodel=%v", cfg.Name(), lm), func(t *testing.T) {
				scans, acquires := run(t, cfg)
				if acquires == 0 {
					t.Fatal("run acquired no locks")
				}
				if scans != 0 {
					t.Fatalf("%d of %d acquires scanned the hold ring on one CPU", scans, acquires)
				}
			})
		}
	}
	// Control: the same run on four CPUs does scan, so the zeros above
	// are not a dead counter.
	cfg := core.Configurations()[0]
	cfg.NumCPUs, cfg.LockModel = 4, core.LockBig
	if scans, _ := run(t, cfg); scans == 0 {
		t.Fatal("no acquire scanned the hold ring on four CPUs")
	}
}

// TestSteadyStateAllocs runs the two hottest kernel paths — a null system
// call loop, and a mutex/condition-variable ping-pong pair that context
// switches on every turn — past warm-up and then checks that a slice
// sixteen times longer allocates no more than a short one: whatever a
// RunFor call itself costs, the operations inside it allocate nothing.
func TestSteadyStateAllocs(t *testing.T) {
	const huge = 1 << 30 // never reached: the loop under test outlives the test
	scales := map[string]workload.FlukeperfScale{
		"null-syscall":   {Nulls: huge, BigWords: 1024},
		"mutex-pingpong": {PingPong: huge, BigWords: 1024},
	}
	for name, sc := range scales {
		for _, cfg := range core.Configurations() {
			name, sc, cfg := name, sc, cfg
			t.Run(name+"/"+cfg.Name(), func(t *testing.T) {
				k := core.New(cfg)
				defer k.Shutdown()
				if _, err := workload.NewFlukeperf(k, sc); err != nil {
					t.Fatal(err)
				}
				const slice = 200_000 // virtual cycles: hundreds of operations
				k.RunFor(20 * slice)  // warm-up: other threads exit, caches and queues fill
				before := k.Stats()
				short := testing.AllocsPerRun(5, func() { k.RunFor(slice) })
				long := testing.AllocsPerRun(5, func() { k.RunFor(16 * slice) })
				after := k.Stats()
				if ops := after.Syscalls - before.Syscalls; ops < 10_000 {
					t.Fatalf("only %d syscalls in the measured slices", ops)
				}
				if name == "mutex-pingpong" && after.ContextSwitches-before.ContextSwitches < 1_000 {
					t.Fatalf("only %d context switches in the measured slices",
						after.ContextSwitches-before.ContextSwitches)
				}
				if long > short {
					t.Fatalf("allocations grow with the operations run: %.0f per short slice, %.0f per 16x slice",
						short, long)
				}
			})
		}
	}
}
