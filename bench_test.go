package fluke_test

// One benchmark per table/figure of the paper's evaluation, built on the
// same experiment drivers cmd/flukebench uses. Wall-clock numbers measure
// the simulator; the paper-comparable results are the *virtual*-time
// metrics attached with b.ReportMetric (µs/op of simulated time, latency
// in simulated µs, bytes of kernel memory).

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/dev"
	"repro/internal/experiments"
	"repro/internal/mem"
	"repro/internal/mmu"
	"repro/internal/obj"
	"repro/internal/prog"
	"repro/internal/sys"
	"repro/internal/workload"
)

// BenchmarkTable1Inventory regenerates the API inventory (Table 1).
func BenchmarkTable1Inventory(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c := experiments.Table1Counts()
		if c[sys.Short] != 68 {
			b.Fatal("inventory drifted")
		}
	}
}

// BenchmarkTable3RestartCosts regenerates the IPC restart-cost table; the
// virtual remedy costs are attached as metrics.
func BenchmarkTable3RestartCosts(b *testing.B) {
	var rows []experiments.Table3Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.Table3()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[0].RemedyUS, "client-soft-us")
	b.ReportMetric(rows[1].RemedyUS, "client-hard-us")
	b.ReportMetric(rows[2].RemedyUS, "server-soft-us")
	b.ReportMetric(rows[3].RemedyUS, "server-hard-us")
}

// benchWorkload runs one workload/configuration cell of Table 5.
func benchWorkload(b *testing.B, mk func(*core.Kernel) (*workload.Workload, error)) {
	var virtual uint64
	for i := 0; i < b.N; i++ {
		k := core.New(benchCfg)
		w, err := mk(k)
		if err != nil {
			b.Fatal(err)
		}
		cyc, err := w.Run(1 << 62)
		if err != nil {
			b.Fatal(err)
		}
		virtual += cyc
	}
	b.ReportMetric(float64(virtual)/float64(b.N)/200, "virtual-us/op")
}

var benchCfg core.Config

// BenchmarkTable5 regenerates the application-performance table: one
// sub-benchmark per workload per kernel configuration.
func BenchmarkTable5(b *testing.B) {
	sc := experiments.FastTable5Scale()
	workloads := map[string]func(*core.Kernel) (*workload.Workload, error){
		"memtest": func(k *core.Kernel) (*workload.Workload, error) {
			return workload.NewMemtest(k, sc.MemtestBytes)
		},
		"flukeperf": func(k *core.Kernel) (*workload.Workload, error) {
			return workload.NewFlukeperf(k, sc.Flukeperf)
		},
		"gcc": func(k *core.Kernel) (*workload.Workload, error) {
			return workload.NewGCC(k, sc.GCC)
		},
	}
	for _, name := range []string{"memtest", "flukeperf", "gcc"} {
		for _, cfg := range core.Configurations() {
			cfg := cfg
			b.Run(fmt.Sprintf("%s/%s", name, cfg.Name()), func(b *testing.B) {
				benchCfg = cfg
				benchWorkload(b, workloads[name])
			})
		}
	}
}

// BenchmarkTable6PreemptionLatency regenerates the preemption-latency
// table: one sub-benchmark per configuration, reporting simulated
// latencies as metrics.
func BenchmarkTable6PreemptionLatency(b *testing.B) {
	sc := experiments.FastTable5Scale().Flukeperf
	for _, cfg := range core.Configurations() {
		cfg := cfg
		b.Run(cfg.Name(), func(b *testing.B) {
			var avg, max float64
			for i := 0; i < b.N; i++ {
				k := core.New(cfg)
				w, err := workload.NewFlukeperf(k, sc)
				if err != nil {
					b.Fatal(err)
				}
				p := workload.InstallProbe(k, 0, 0)
				if _, err := w.Run(1 << 62); err != nil {
					b.Fatal(err)
				}
				p.Stop()
				avg = p.Lat.Avg()
				max = p.Lat.Max()
			}
			b.ReportMetric(avg, "latency-avg-us")
			b.ReportMetric(max, "latency-max-us")
		})
	}
}

// BenchmarkTable7MemoryUse regenerates the per-thread memory-overhead
// table, attaching the measured sizes as metrics.
func BenchmarkTable7MemoryUse(b *testing.B) {
	var rows []experiments.Table7Row
	for i := 0; i < b.N; i++ {
		rows = experiments.Table7()
	}
	for _, r := range rows {
		if r.Published {
			continue
		}
		b.ReportMetric(float64(r.Total), fmt.Sprintf("%s-%d-bytes", r.Model, r.Stack))
	}
}

// BenchmarkNullSyscall regenerates the §5.5 architectural-bias
// microbenchmark (Figure 1's axes made quantitative): the interrupt model
// pays ~6 extra cycles per kernel entry/exit.
func BenchmarkNullSyscall(b *testing.B) {
	for _, model := range []core.ExecModel{core.ModelProcess, core.ModelInterrupt} {
		model := model
		b.Run(model.String(), func(b *testing.B) {
			var per float64
			for i := 0; i < b.N; i++ {
				k := core.New(core.Config{Model: model})
				s := k.NewSpace()
				pb := prog.New(0x0001_0000)
				pb.Movi(6, 0).Label("loop").
					Null().
					Addi(6, 6, 1).Movi(5, 2000).Blt(6, 5, "loop").
					Halt()
				if _, err := k.SpawnProgram(s, 0x0001_0000, pb.MustAssemble(), 8); err != nil {
					b.Fatal(err)
				}
				k.Run()
				per = float64(k.Stats().KernelCycles) / 2000
			}
			b.ReportMetric(per, "kernel-cycles/call")
		})
	}
}

// BenchmarkNullRPC measures the direct-handoff IPC fast path: a
// client/server null-RPC pair run with the fast path on and off,
// reporting virtual kernel cycles per call for each regime and the
// relative drop. Unlike the simulator caches, the fast path is an
// architectural change and *intentionally* moves virtual time.
func BenchmarkNullRPC(b *testing.B) {
	var on, off experiments.NullRPCResult
	var drop float64
	for i := 0; i < b.N; i++ {
		var err error
		on, off, drop, err = experiments.NullRPC(5000)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(on.KernelCycles, "kernel-cycles/call-on")
	b.ReportMetric(off.KernelCycles, "kernel-cycles/call-off")
	b.ReportMetric(drop, "drop-%")
	b.ReportMetric(float64(on.Hits)/5000, "handoffs/call")
}

// BenchmarkNullSyscallMetricsOverhead measures the wall-clock cost the
// metrics registry adds to the hottest path (the null syscall): "off"
// pays only the k.Metrics == nil branch at each instrumented site, "on"
// pays the counter increments and one histogram observation per call.
// Virtual time is identical in both (TestMetricsDoNotPerturbVirtualTime).
func BenchmarkNullSyscallMetricsOverhead(b *testing.B) {
	for _, enabled := range []bool{false, true} {
		name := "off"
		if enabled {
			name = "on"
		}
		b.Run(name, func(b *testing.B) {
			const calls = 20_000 // amortize kernel + registry setup
			for i := 0; i < b.N; i++ {
				k := core.New(core.Config{Model: core.ModelProcess})
				if enabled {
					k.EnableMetrics()
				}
				s := k.NewSpace()
				pb := prog.New(0x0001_0000)
				pb.Movi(6, 0).Label("loop").
					Null().
					Addi(6, 6, 1).Movi(5, calls).Blt(6, 5, "loop").
					Halt()
				if _, err := k.SpawnProgram(s, 0x0001_0000, pb.MustAssemble(), 8); err != nil {
					b.Fatal(err)
				}
				k.Run()
			}
		})
	}
}

// BenchmarkBandwidth measures bulk-IPC bandwidth at 64 KiB with the
// zero-copy frame-sharing path on and off. Like the direct-handoff fast
// path, zero copy is an architectural change that *intentionally* moves
// virtual time: the paper-comparable metrics are simulated MB/s per
// regime and the speedup, which TestBandwidthZeroCopySpeedup pins at ≥4×.
func BenchmarkBandwidth(b *testing.B) {
	results := map[string]experiments.BandwidthResult{}
	for _, mode := range []string{"zerocopy", "copy"} {
		mode := mode
		b.Run(mode, func(b *testing.B) {
			var r experiments.BandwidthResult
			for i := 0; i < b.N; i++ {
				var err error
				r, err = experiments.BandwidthCell(64<<10, mode, 1, core.LockBig)
				if err != nil {
					b.Fatal(err)
				}
			}
			results[mode] = r
			b.ReportMetric(r.MBps, "virtual-MB/s")
			if cp := results["copy"]; mode == "zerocopy" && cp.MBps > 0 {
				b.ReportMetric(r.MBps/cp.MBps, "speedup")
			} else if zc := results["zerocopy"]; mode == "copy" && zc.MBps > 0 {
				b.ReportMetric(zc.MBps/r.MBps, "speedup")
			}
			b.ReportMetric(float64(r.Shares), "page-shares")
		})
	}
}

// BenchmarkNetload measures the NIC + network-server stack at the
// CI-smoke scale with the tuned and naive disciplines. Coalescing and
// zero-copy replies are architectural changes that *intentionally* move
// virtual time: the paper-comparable metrics are simulated MB/s per
// regime and the speedup, which TestNetloadSpeedup pins at ≥3× for
// 64 KiB responses.
func BenchmarkNetload(b *testing.B) {
	sc := experiments.FastNetloadScale()
	results := map[string]experiments.NetloadResult{}
	for _, mode := range []string{experiments.NetloadTuned, experiments.NetloadNaive} {
		mode := mode
		b.Run(mode, func(b *testing.B) {
			var r experiments.NetloadResult
			for i := 0; i < b.N; i++ {
				var err error
				r, err = experiments.NetloadCell(mode, 1, core.LockBig, sc)
				if err != nil {
					b.Fatal(err)
				}
			}
			results[mode] = r
			b.ReportMetric(r.MBPerVirtualS, "virtual-MB/s")
			b.ReportMetric(r.P99, "p99-us")
			if nv := results[experiments.NetloadNaive]; mode == experiments.NetloadTuned && nv.MBPerVirtualS > 0 {
				b.ReportMetric(r.MBPerVirtualS/nv.MBPerVirtualS, "speedup")
			} else if tn := results[experiments.NetloadTuned]; mode == experiments.NetloadNaive && r.MBPerVirtualS > 0 {
				b.ReportMetric(tn.MBPerVirtualS/r.MBPerVirtualS, "speedup")
			}
		})
	}
}

// BenchmarkMigrate measures the pre-copy live-migration path on the
// 4 MiB / 32-hot-page writer cell. Wall-clock ns/op measures the
// simulator; the paper-comparable results are the attached metrics:
// simulated downtime, the stop-and-copy downtime the same space would
// have been frozen for, and their ratio (TestMigrationSpeedup and
// TestMigratePrecopy pin the underlying invariants).
func BenchmarkMigrate(b *testing.B) {
	var r experiments.MigrateResult
	for i := 0; i < b.N; i++ {
		var err error
		r, err = experiments.MigrateCell(4<<20, 32, 3)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(r.DowntimeCycles)/clock.CyclesPerMicrosecond, "downtime-virtual-us")
	b.ReportMetric(float64(r.StopCopyCycles)/clock.CyclesPerMicrosecond, "stopcopy-virtual-us")
	b.ReportMetric(r.Ratio, "downtime-ratio")
}

// BenchmarkSnapshotDelta measures one warm pre-copy round on the same
// 4 MiB / 32-hot-page writer: the source runs one transfer window, then
// SnapshotMemoryDelta captures what it dirtied against the previous
// image. Cost should follow the dirty set, not the resident set, so host
// time and allocation are reported per *dirty* frame (PageSize of the B
// figure is the page copy itself). ns/op and B/op include the source's
// RunFor; the per-dirty-frame time does not.
func BenchmarkSnapshotDelta(b *testing.B) {
	k := core.New(core.Config{Model: core.ModelProcess})
	defer k.Shutdown()
	s, err := experiments.NewMigrateWriter(k, 4<<20, 32)
	if err != nil {
		b.Fatal(err)
	}
	parent, err := checkpoint.SnapshotMemory(k, s)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	b.ResetTimer()
	dirty := 0
	var snap time.Duration
	for i := 0; i < b.N; i++ {
		k.RunFor(32 * checkpoint.DefaultXferCyclesPerPage)
		t0 := time.Now()
		d, img, err := checkpoint.SnapshotMemoryDelta(k, s, parent)
		snap += time.Since(t0)
		if err != nil {
			b.Fatal(err)
		}
		parent = img
		dirty += len(d.Frames)
	}
	b.StopTimer()
	runtime.ReadMemStats(&ms1)
	if dirty == 0 {
		b.Fatal("the writer dirtied no page between snapshots")
	}
	b.ReportMetric(float64(snap.Nanoseconds())/float64(dirty), "ns/dirty-frame")
	b.ReportMetric(float64(ms1.TotalAlloc-ms0.TotalAlloc)/float64(dirty), "B/dirty-frame")
}

// BenchmarkIPCRoundTrip measures the simulator's full RPC path (connect,
// 8-word request, turnaround, 8-word reply, disconnect) — wall-clock
// cost per simulated RPC.
func BenchmarkIPCRoundTrip(b *testing.B) {
	for _, cfg := range core.Configurations() {
		cfg := cfg
		b.Run(cfg.Name(), func(b *testing.B) {
			k := core.New(cfg)
			w, err := workload.NewFlukeperf(k, workload.FlukeperfScale{
				Nulls: 1, MutexPairs: 1, PingPong: 1, RPCs: b.N,
				BigTransfers: 0, BigWords: 256, Searches: 0,
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			if _, err := w.Run(1 << 62); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkIPCScaling regenerates the multiprocessor scaling matrix: one
// sub-benchmark per (CPU count, lock model) cell of the parallel-IPC-pairs
// workload. Wall-clock ns/op measures the simulator; the paper-comparable
// results are the attached metrics: simulated throughput (RPCs per virtual
// millisecond), speedup over the same lock model at 1 CPU, and the lock
// contention that explains it.
func BenchmarkIPCScaling(b *testing.B) {
	sc := experiments.FastScalingScale()
	base := map[core.LockModel]float64{}
	for _, lm := range []core.LockModel{core.LockBig, core.LockFine} {
		for _, n := range []int{1, 2, 4} {
			lm, n := lm, n
			b.Run(fmt.Sprintf("cpus=%d/%s", n, lm), func(b *testing.B) {
				var row experiments.ScalingRow
				for i := 0; i < b.N; i++ {
					var err error
					row, err = experiments.IPCScalingCell(n, lm, sc)
					if err != nil {
						b.Fatal(err)
					}
				}
				if n == 1 {
					base[lm] = row.RPCsPerVirtualMS
				}
				b.ReportMetric(row.RPCsPerVirtualMS, "rpcs/virtual-ms")
				if bs := base[lm]; bs > 0 {
					b.ReportMetric(row.RPCsPerVirtualMS/bs, "speedup")
				}
				var contended, wait uint64
				for _, ls := range row.Locks {
					contended += ls.Contended
					wait += ls.WaitCycles
				}
				b.ReportMetric(float64(contended), "lock-contended")
				b.ReportMetric(float64(wait)/1000, "lock-wait-kcycles")
			})
		}
	}
}

// BenchmarkLockAcquireRelease measures the host cost of the virtual kernel
// lock around one kernel entry: b.N null system calls under the big lock,
// spread over one thread per CPU. With one CPU no acquire can find the
// lock busy and every one must take the O(1) watermark exit; with four,
// the serial interleaver runs one CPU's clock a whole episode ahead at a
// time, so the others acquire behind the lock's last release and pay the
// hold-ring scan (mostly finding the lock free at their instant) — the
// path that must not get slower. ns/op is per system call (one
// acquire/release pair each, plus the entry/exit around it).
func BenchmarkLockAcquireRelease(b *testing.B) {
	for _, bc := range []struct {
		name string
		cpus int
	}{{"uncontended/cpus=1", 1}, {"clock-behind/cpus=4", 4}} {
		bc := bc
		b.Run(bc.name, func(b *testing.B) {
			k := core.New(core.Config{Model: core.ModelInterrupt, NumCPUs: bc.cpus, LockModel: core.LockBig})
			defer k.Shutdown()
			pb := prog.New(0x0001_0000)
			pb.Movi(6, 0).Label("loop").
				Null().
				Addi(6, 6, 1).Movi(5, uint32(b.N/bc.cpus+1)).Blt(6, 5, "loop").
				Halt()
			img := pb.MustAssemble()
			var threads []*obj.Thread
			for c := 0; c < bc.cpus; c++ {
				s := k.NewSpace()
				k.SetSpaceHome(s, c)
				th, err := k.SpawnProgram(s, 0x0001_0000, img, 8)
				if err != nil {
					b.Fatal(err)
				}
				threads = append(threads, th)
			}
			b.ResetTimer()
			k.Run()
			b.StopTimer()
			for _, th := range threads {
				if !th.Exited {
					b.Fatal("loop did not finish")
				}
			}
			var acquires uint64
			for _, ls := range k.LockStats() {
				acquires += ls.Acquires
			}
			if acquires < uint64(b.N) {
				b.Fatalf("%d lock acquires for %d system calls", acquires, b.N)
			}
		})
	}
}

// BenchmarkSliceTimerRearm measures one quantum-timer re-arm, the clock
// work of every context switch, both ways: Rearm on the CPU's one Timer,
// and the Cancel + After pair it replaced (a Timer and its heap slot
// allocated per arming). A few other timers keep the heap non-trivial.
func BenchmarkSliceTimerRearm(b *testing.B) {
	const quantum = 10 * clock.CyclesPerMillisecond
	setup := func() *clock.Clock {
		c := clock.New()
		for i := uint64(1); i <= 4; i++ {
			c.At(i<<40, nil)
		}
		return c
	}
	expired := func(uint64) {}
	b.Run("rearm", func(b *testing.B) {
		c := setup()
		t := c.NewTimer(expired)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Rearm(t, c.Now()+quantum)
			c.Advance(100)
		}
	})
	b.Run("cancel+after", func(b *testing.B) {
		c := setup()
		var t *clock.Timer
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Cancel(t)
			t = c.After(quantum, expired)
			c.Advance(100)
		}
	})
}

// BenchmarkNICDeliver64K measures the device half of one bulk reply on a
// bare NIC: a 64 KiB frame DMA-written into a 16-page buffer whose every
// page is still COW-shared with the receiver of the previous frame, as the
// zero-copy reply path leaves it — sixteen unshares per delivery, each a
// whole-page overwrite. Interrupts stay masked (never armed), so ns/op and
// B/op are the RX data path alone; steady state allocates nothing.
func BenchmarkNICDeliver64K(b *testing.B) {
	const (
		bufOff   = mem.PageSize // page 0 holds both one-slot rings and the shadow word
		bufPages = 16
	)
	alloc := mem.NewAllocator(4 * bufPages)
	dma := mmu.NewRegion((1+bufPages)*mem.PageSize, true)
	nic, err := dev.NewNIC(alloc, true, 0, []dev.NICQueueConfig{{
		Clock: clock.New(), DMA: dma, Raise: func() {},
		TxRingOff: 0, TxSlots: 1, RxRingOff: dev.NICDescBytes, RxSlots: 1, HeadShadowOff: 2 * dev.NICDescBytes,
	}})
	if err != nil {
		b.Fatal(err)
	}
	ring, err := alloc.Alloc()
	if err != nil {
		b.Fatal(err)
	}
	dma.Populate(0, ring)
	desc := ring.Data[dev.NICDescBytes:]
	binary.LittleEndian.PutUint32(desc[dev.NICDescOff:], bufOff)
	io := nic.QueueIO(0)
	payload := bytes.Repeat([]byte{0x5A}, bufPages*mem.PageSize)
	var held [bufPages]*mem.Frame // the receiver's references
	deliver := func(n uint32) {
		for p := range held {
			if f := dma.FrameAt(bufOff + uint32(p)*mem.PageSize); f != nil {
				alloc.Share(f)
				f.Cow = true
				held[p] = f
			}
		}
		desc[dev.NICDescOwn] = 1
		io.IOWrite32(dev.NICRegRxTail, n)
		nic.Deliver(0, 0, payload)
		for p, f := range held {
			alloc.Free(f) // nil on the first pass
			held[p] = nil
		}
	}
	deliver(1) // populates the buffer
	deliver(2) // first round of unshares: the allocator grows to its steady size
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		deliver(uint32(i) + 3)
	}
	b.StopTimer()
	if c := nic.Counters(); c.RxFrames != uint64(b.N)+2 || c.Unshares != (uint64(b.N)+1)*bufPages {
		b.Fatalf("%d deliveries: %+v", b.N, c)
	}
	if got := dma.FrameAt(bufOff + (bufPages-1)*mem.PageSize).Data[mem.PageSize-1]; got != 0x5A {
		b.Fatalf("last payload byte reads %#x", got)
	}
}

// BenchmarkInterpreter measures raw simulated-CPU throughput
// (instructions of guest code per wall second).
func BenchmarkInterpreter(b *testing.B) {
	benchInterpreter(b, core.Config{Model: core.ModelInterrupt})
}

// BenchmarkInterpreterProfiled is the same hot loop with the cycle
// profiler attributing every charged cycle — the bench.sh comparison
// against BenchmarkInterpreter measures the profiler's host-side
// overhead (virtual time is identical by TestProfilerEquivalence).
func BenchmarkInterpreterProfiled(b *testing.B) {
	benchInterpreter(b, core.Config{Model: core.ModelInterrupt, EnableProfiler: true})
}

// BenchmarkInterpreterDecodeCache is the same counted loop with the
// threaded-code tier off — the decode-cache tier alone. The ratio
// against BenchmarkInterpreter is the fused-block speedup; bench.sh
// records both and the CI smoke asserts the fused tier stays ahead.
func BenchmarkInterpreterDecodeCache(b *testing.B) {
	benchInterpreter(b, core.Config{Model: core.ModelInterrupt, DisableThreadedCode: true})
}

// BenchmarkInterpreterStraightLine runs 30 ALU instructions per loop
// pass — long fused blocks, the threaded tier's best case. ns/op is per
// loop pass (32 instructions), not per instruction.
func BenchmarkInterpreterStraightLine(b *testing.B) {
	benchInterpreterLoop(b, core.Config{Model: core.ModelInterrupt}, func(pb *prog.Builder) {
		pb.Movi(1, 1)
		for i := 0; i < 10; i++ {
			pb.Add(2, 2, 1).Xor(3, 3, 2).Addi(4, 4, 5)
		}
	})
}

// BenchmarkInterpreterBranchHeavy takes a branch on every instruction
// (eight always-taken hops per pass) — blocks cannot fuse anything, so
// this pins the threaded tier's overhead on its worst case.
func BenchmarkInterpreterBranchHeavy(b *testing.B) {
	n := 0
	benchInterpreterLoop(b, core.Config{Model: core.ModelInterrupt}, func(pb *prog.Builder) {
		for i := 0; i < 8; i++ {
			lbl := fmt.Sprintf("bh%d.%d", n, i)
			pb.Bge(6, 0, lbl).Label(lbl)
		}
		n++
	})
}

// BenchmarkInterpreterSelfModifying stores into the executing code page
// every pass, invalidating the page's decode slots and fused blocks each
// time around — the adversarial shape the block-thrash guard exists for.
func BenchmarkInterpreterSelfModifying(b *testing.B) {
	benchInterpreterLoop(b, core.Config{Model: core.ModelInterrupt}, func(pb *prog.Builder) {
		pb.St(0, 0x0001_0F00, 6)
	})
}

// BenchmarkInterpreterArraySweep runs memtest's inner loop — load a byte,
// step the cursor, branch back — over a 64 KiB demand-zero buffer through
// a whole kernel, b.N bytes in all, so ns/op is per guest byte: the
// user-mode half of memtest_faults, and the shape the interpreter's
// counted-loop executor and its read window exist for.
func BenchmarkInterpreterArraySweep(b *testing.B) {
	const (
		code = 0x0001_0000
		buf  = 0x0004_0000
		size = 0x10000
	)
	k := core.New(core.Config{Model: core.ModelInterrupt})
	s := k.NewSpace()
	data := &obj.Region{Header: obj.Header{Type: sys.ObjRegion}, R: mmu.NewRegion(size, true)}
	k.BindFresh(s, data)
	if _, err := k.MapInto(s, data, buf, 0, size, mmu.PermRW); err != nil {
		b.Fatal(err)
	}
	pb := prog.New(code)
	sweep := func(label string, n uint32) {
		pb.Movi(6, buf).Movi(5, buf+n).
			Label(label).Ldb(3, 6, 0).Addi(6, 6, 1).Blt(6, 5, label)
	}
	if full := uint32(b.N / size); full > 0 {
		pb.Movi(2, 0).Label("full")
		sweep("full.loop", size)
		pb.Addi(2, 2, 1).Movi(0, full).Blt(2, 0, "full")
	}
	if rest := uint32(b.N % size); rest > 0 {
		sweep("rest", rest)
	}
	th, err := k.SpawnProgram(s, code, pb.Halt().MustAssemble(), 8)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	k.Run()
	if !th.Exited {
		b.Fatal("sweep did not finish")
	}
}

func benchInterpreter(b *testing.B, cfg core.Config) {
	benchInterpreterLoop(b, cfg, nil)
}

// benchInterpreterLoop runs b.N passes of a counted loop whose body is
// emitted by body (nil for the bare counter), measuring host time only —
// virtual time is pinned elsewhere.
func benchInterpreterLoop(b *testing.B, cfg core.Config, body func(pb *prog.Builder)) {
	k := core.New(cfg)
	s := k.NewSpace()
	data := &obj.Region{Header: obj.Header{Type: sys.ObjRegion}, R: mmu.NewRegion(0x10000, true)}
	k.BindFresh(s, data)
	if _, err := k.MapInto(s, data, 0x0004_0000, 0, 0x10000, mmu.PermRW); err != nil {
		b.Fatal(err)
	}
	pb := prog.New(0x0001_0000)
	pb.Movi(6, 0).Movi(5, uint32(b.N)).
		Label("loop")
	if body != nil {
		body(pb)
	}
	pb.Addi(6, 6, 1).
		Blt(6, 5, "loop").
		Halt()
	th, err := k.SpawnProgram(s, 0x0001_0000, pb.MustAssemble(), 8)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	k.Run()
	if !th.Exited {
		b.Fatal("loop did not finish")
	}
}
