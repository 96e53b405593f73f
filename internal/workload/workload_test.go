package workload_test

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/equiv"
	"repro/internal/mem"
	"repro/internal/mmu"
	"repro/internal/obj"
	"repro/internal/workload"
)

const testBudget = 10_000_000_000 // 50 virtual seconds

func TestFlukeperfCompletesAllConfigs(t *testing.T) {
	for _, cfg := range core.Configurations() {
		cfg := cfg
		t.Run(cfg.Name(), func(t *testing.T) {
			k := core.New(cfg)
			w, err := workload.NewFlukeperf(k, workload.SmallFlukeperfScale())
			if err != nil {
				t.Fatal(err)
			}
			cycles, err := w.Run(testBudget)
			if err != nil {
				t.Fatal(err)
			}
			if cycles == 0 {
				t.Fatal("no virtual time elapsed")
			}
			if k.Stats().Syscalls < 1000 {
				t.Fatalf("flukeperf made only %d syscalls", k.Stats().Syscalls)
			}
		})
	}
}

func TestMemtestCompletesAllConfigs(t *testing.T) {
	for _, cfg := range core.Configurations() {
		cfg := cfg
		t.Run(cfg.Name(), func(t *testing.T) {
			k := core.New(cfg)
			const bytes = 256 << 10 // scaled-down 256 KB working set
			w, err := workload.NewMemtest(k, bytes)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := w.Run(testBudget); err != nil {
				t.Fatal(err)
			}
			hard := k.Stats().FaultCount[core.FaultKey{Class: mmu.FaultHard, Side: core.FaultSame}]
			if hard != bytes/4096 {
				t.Fatalf("hard faults = %d, want %d (one per page)", hard, bytes/4096)
			}
		})
	}
}

func TestGCCPipelineCompletesAllConfigs(t *testing.T) {
	for _, cfg := range core.Configurations() {
		cfg := cfg
		t.Run(cfg.Name(), func(t *testing.T) {
			k := core.New(cfg)
			w, err := workload.NewGCC(k, workload.SmallGCCScale())
			if err != nil {
				t.Fatal(err)
			}
			if _, err := w.Run(testBudget); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestGCCIsMostlyUserMode(t *testing.T) {
	k := core.New(core.Config{Model: core.ModelProcess})
	w, err := workload.NewGCC(k, workload.DefaultGCCScale())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Run(testBudget); err != nil {
		t.Fatal(err)
	}
	u, kk := k.Stats().UserCycles, k.Stats().KernelCycles
	if u < 3*kk {
		t.Fatalf("gcc user/kernel = %d/%d; want mostly user-mode", u, kk)
	}
}

func TestMemtestIsFaultDominated(t *testing.T) {
	k := core.New(core.Config{Model: core.ModelProcess})
	w, err := workload.NewMemtest(k, 512<<10)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Run(testBudget); err != nil {
		t.Fatal(err)
	}
	if k.Stats().KernelCycles < k.Stats().UserCycles/4 {
		t.Fatalf("memtest kernel share too small: u=%d k=%d", k.Stats().UserCycles, k.Stats().KernelCycles)
	}
}

func TestProbeMeasuresLatency(t *testing.T) {
	for _, cfg := range core.Configurations() {
		cfg := cfg
		t.Run(cfg.Name(), func(t *testing.T) {
			k := core.New(cfg)
			w, err := workload.NewFlukeperf(k, workload.SmallFlukeperfScale())
			if err != nil {
				t.Fatal(err)
			}
			p := workload.InstallProbe(k, 0, 0)
			if _, err := w.Run(testBudget); err != nil {
				t.Fatal(err)
			}
			if p.Runs == 0 {
				t.Fatal("probe never ran")
			}
			if p.Lat.Count() == 0 {
				t.Fatal("no latency samples")
			}
			if p.Lat.Max() > 100_000 {
				t.Fatalf("absurd max latency %v µs", p.Lat.Max())
			}
			p.Stop()
		})
	}
}

func TestProbeFullPreemptionBoundsLatency(t *testing.T) {
	// FP must bound preemption latency to roughly the fpChunk size
	// (~10 µs) plus switching; NP must show much larger maxima on the
	// same workload (the Table 6 headline).
	run := func(cfg core.Config) float64 {
		k := core.New(cfg)
		w, err := workload.NewFlukeperf(k, workload.FlukeperfScale{
			Nulls: 100, MutexPairs: 100, PingPong: 10, RPCs: 10,
			BigTransfers: 1, BigWords: 256 << 10 / 4, Searches: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		p := workload.InstallProbe(k, 0, 0)
		if _, err := w.Run(testBudget); err != nil {
			t.Fatal(err)
		}
		defer p.Stop()
		if p.Lat.Count() == 0 {
			t.Fatal("no samples")
		}
		return p.Lat.Max()
	}
	fp := run(core.Config{Model: core.ModelProcess, Preempt: core.PreemptFull})
	np := run(core.Config{Model: core.ModelProcess, Preempt: core.PreemptNone})
	if fp > 100 {
		t.Fatalf("FP max latency %v µs, want small", fp)
	}
	if np < 5*fp {
		t.Fatalf("NP max %v µs not >> FP max %v µs", np, fp)
	}
}

// TestModelEquivalenceOnWorkloads runs the gcc pipeline through the
// equivalence harness; the digest carries every stage's data window. Its
// stages talk by oneway sends, which the IPC fast path never hands off.
func TestModelEquivalenceOnWorkloads(t *testing.T) {
	equiv.Check(t, equiv.Scenario{
		Flags: []equiv.Flag{equiv.FastPath, equiv.ThreadedCode, equiv.Profiler},
		Fires: []string{"LoopPasses"},
		Run: func(t *testing.T, r *equiv.Run) *equiv.Digest {
			k := core.New(r.Config)
			k.EnableMetrics()
			w, err := workload.NewGCC(k, workload.SmallGCCScale())
			if err != nil {
				t.Fatal(err)
			}
			if _, err := w.Run(testBudget); err != nil {
				t.Fatal(err)
			}
			d := equiv.Take(t, k)
			for i, th := range w.Done {
				d.Mem = append(d.Mem, equiv.Read(t, k, th.Space, fmt.Sprintf("stage %d data", i), 0x0004_0000, 16*mem.PageSize))
			}
			return d
		},
	})
}

var _ = obj.ThReady
