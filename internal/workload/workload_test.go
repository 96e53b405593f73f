package workload_test

import (
	"fmt"
	"runtime"
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

// TestHardFaultAllocsPerPage bounds the host heap cost of memtest's
// per-page path (hard fault, pager RPC, restart): the objects and bytes a
// 4 608-page run allocates beyond a 512-page one, per extra page, must
// stay within 4 objects and 256 B — a few small headers. memtest only
// reads its pages, so they stay unwritten and cost no page of contents;
// a frame that takes its own page before its first write, a
// one-make-per-frame allocator, or hash maps on the fault path that grow
// with the pages touched exceed it.
func TestHardFaultAllocsPerPage(t *testing.T) {
	const small, large = 512, 4608
	measure := func(pages int) (objects, bytes uint64) {
		objects, bytes = ^uint64(0), ^uint64(0)
		for rep := 0; rep < 3; rep++ { // the least of three: runtime noise only adds
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			k := core.New(core.Config{Model: core.ModelInterrupt, Preempt: core.PreemptPartial, PhysFrames: 2 * large})
			w, err := workload.NewMemtest(k, uint32(pages*mem.PageSize))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := w.Run(testBudget); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			objects = min(objects, after.Mallocs-before.Mallocs)
			bytes = min(bytes, after.TotalAlloc-before.TotalAlloc)
		}
		return objects, bytes
	}
	o1, b1 := measure(small)
	o2, b2 := measure(large)
	perObj := float64(o2-o1) / (large - small)
	perByte := float64(b2-b1) / (large - small)
	t.Logf("per extra page: %.2f objects, %.0f B", perObj, perByte)
	if perObj > 4 || perByte > 256 {
		t.Fatalf("per extra page: %.2f objects, %.0f B; want <= 4 objects and <= 256 B", perObj, perByte)
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
