package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/bench/report"
	"repro/internal/checkpoint"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/experiments"
	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/mmu"
	"repro/internal/obj"
	"repro/internal/profile"
	"repro/internal/prog"
	"repro/internal/sched"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Layer probes: direct timed calls into public functions of one layer,
// outside any workload. Each probe does a fixed amount of work (about
// 20-40 ms of host time at full scale), is bracketed by the calibration
// loop like a repetition, and reports once per invocation.

// probeDef is one probe: the metrics it yields and the function that
// measures them, returning one value per metric in order. Host values
// with unit "ns" are scaled by the adjacent calibrations afterwards.
type probeDef struct {
	name string
	defs []layerDef
	run  func(p *probeCtx) ([]float64, error)
}

func hostNS(name string) layerDef { return hostCost(name, "ns") }

// probeCtx carries the scale. n shrinks a full-scale iteration count for
// the smoke test.
type probeCtx struct{ smoke bool }

func (p *probeCtx) n(full int) int {
	if p.smoke {
		return max(full/50, 2)
	}
	return full
}

// cpuTime is the host CPU ns fn took.
func cpuTime(fn func()) float64 {
	t0 := cpuNS()
	fn()
	return cpuNS() - t0
}

const (
	probeCode = 0x0001_0000
	probeData = 0x0100_0000
)

// guestSpace is a bare address space with img loaded at probeCode and
// dataPages of demand-zero memory at probeData — what cpu.StepN needs,
// with no kernel around it.
func guestSpace(img []byte, dataPages int) (*mmu.AddrSpace, error) {
	alloc := mem.NewAllocator(dataPages*2 + 64)
	as := mmu.NewAddrSpace(alloc)
	codeSize := mem.PageRound(uint32(len(img)) + 1)
	maps := []*mmu.Mapping{{Region: mmu.NewRegion(codeSize, true), Base: probeCode, Size: codeSize, Perm: mmu.PermRWX}}
	if dataPages > 0 {
		size := uint32(dataPages) * mem.PageSize
		maps = append(maps, &mmu.Mapping{Region: mmu.NewRegion(size, true), Base: probeData, Size: size, Perm: mmu.PermRW})
	}
	for _, m := range maps {
		if err := as.Map(m); err != nil {
			return nil, err
		}
		for va := m.Base; va < m.Base+m.Size; va += mem.PageSize {
			if err := as.ResolveSoft(va, cpu.Write); err != nil {
				return nil, err
			}
		}
	}
	for i, b := range img {
		if f := as.Store8(probeCode+uint32(i), b); f != nil {
			return nil, f
		}
	}
	return as, nil
}

// loopGuest assembles a counted loop of iters passes around body.
func loopGuest(iters int, body func(b *prog.Builder)) []byte {
	b := prog.New(probeCode)
	b.Movi(6, 0).Movi(5, uint32(iters)).Label("loop")
	if body != nil {
		body(b)
	}
	b.Addi(6, 6, 1).Blt(6, 5, "loop").Halt()
	return b.MustAssemble()
}

// interpret runs img to its HALT through cpu.StepN (or cpu.Step, one
// instruction at a time) and returns host ns per retired instruction.
func interpret(img []byte, stepN bool) (float64, error) {
	as, err := guestSpace(img, 0)
	if err != nil {
		return 0, err
	}
	r := cpu.Regs{PC: probeCode}
	var retired uint64
	var trap cpu.Trap
	ns := cpuTime(func() {
		for trap.Kind == cpu.TrapNone {
			if stepN {
				var n uint64
				_, n, trap = cpu.StepN(&r, as, 1<<16)
				retired += n
			} else {
				_, trap = cpu.Step(&r, as)
				retired++
			}
		}
	})
	if trap.Kind != cpu.TrapHalt {
		return 0, fmt.Errorf("guest stopped with trap %v at pc=%#x", trap.Kind, r.PC)
	}
	return ns / float64(retired), nil
}

// writerKernel is a kernel with one writer space of pages resident pages
// (the migrate_precopy guest), advanced far enough to have run.
func writerKernel(pages, hot int) (*core.Kernel, *obj.Space, error) {
	k := core.New(core.Config{Model: core.ModelProcess})
	s, err := newWriterSpace(k, uint32(pages)*mem.PageSize, hot)
	if err != nil {
		return nil, nil, err
	}
	k.RunFor(100 * clock.CyclesPerMicrosecond)
	return k, s, nil
}

var probes = []probeDef{
	{
		name: "cpu.StepN",
		defs: []layerDef{
			hostNS("cpu.stepn_ns_per_instr.loop"),
			hostNS("cpu.stepn_ns_per_instr.straight"),
			hostNS("cpu.stepn_ns_per_instr.branchy"),
			hostNS("cpu.stepn_ns_per_instr.selfmod"),
			hostNS("cpu.step_ns_per_instr"),
		},
		run: func(p *probeCtx) ([]float64, error) {
			shapes := []struct {
				iters int
				body  func(b *prog.Builder)
			}{
				{p.n(4_000_000), nil},
				{p.n(400_000), func(b *prog.Builder) { // 30 ALU instructions: long fused blocks
					b.Movi(1, 1)
					for i := 0; i < 10; i++ {
						b.Add(2, 2, 1).Xor(3, 3, 2).Addi(4, 4, 5)
					}
				}},
				{p.n(300_000), func(b *prog.Builder) { // a taken branch per instruction
					for i := 0; i < 8; i++ {
						l := fmt.Sprintf("hop%d", i)
						b.Bge(6, 0, l).Label(l)
					}
				}},
				{p.n(100_000), func(b *prog.Builder) { // a store into the executing page every pass
					b.St(0, probeCode+0xF00, 6)
				}},
			}
			var out []float64
			for _, sh := range shapes {
				ns, err := interpret(loopGuest(sh.iters, sh.body), true)
				if err != nil {
					return nil, err
				}
				out = append(out, ns)
			}
			ns, err := interpret(loopGuest(p.n(600_000), nil), false)
			return append(out, ns), err
		},
	},
	{
		name: "mmu.AddrSpace",
		defs: []layerDef{
			hostNS("mmu.load32_hit_ns"),
			hostNS("mmu.load32_tlbmiss_ns"),
			hostNS("mmu.store32_hit_ns"),
			hostNS("mmu.store32_dirty_first_ns"),
			hostNS("mmu.resolve_soft_ns"),
			hostNS("mmu.flushrange_ns_per_page"),
		},
		run: func(p *probeCtx) ([]float64, error) {
			// Four times the TLB's capacity, so a page-stride walk misses
			// on every access while every page keeps its PTE.
			const pages = 4 * mmu.DefaultTLBSize
			as, err := guestSpace(nil, pages)
			if err != nil {
				return nil, err
			}
			var fault *cpu.Fault
			walk := func(n int, stride uint32, store bool) float64 {
				return cpuTime(func() {
					va := uint32(probeData)
					for i := 0; i < n; i++ {
						var f *cpu.Fault
						if store {
							f = as.Store32(va, uint32(i))
						} else {
							_, f = as.Load32(va)
						}
						if f != nil {
							fault = f
						}
						if va += stride; va >= probeData+pages*mem.PageSize {
							va = probeData
						}
					}
				}) / float64(n)
			}
			n := p.n(4_000_000)
			as.Load32(probeData) // warm the one page the hit walks stay on
			loadHit := walk(n, 0, false)
			loadMiss := walk(n/4, mem.PageSize, false)
			storeHit := walk(n, 0, true)

			// First store to a tracked page: the TLB entry was armed
			// read-only, the slow path logs the page and disarms it.
			reg := as.MappingAt(probeData).Region
			rounds := p.n(400)
			var dirtyFirst float64
			for r := 0; r < rounds; r++ {
				reg.StartDirtyTracking()
				dirtyFirst += cpuTime(func() {
					for pg := uint32(0); pg < pages; pg++ {
						if f := as.Store32(probeData+pg*mem.PageSize, pg); f != nil {
							fault = f
						}
					}
				})
			}
			reg.StopDirtyTracking()
			dirtyFirst /= float64(rounds * pages)

			// Soft-fault resolution of present pages, and the flush that
			// makes them fault again.
			var resolve, flush float64
			for r := 0; r < rounds; r++ {
				flush += cpuTime(func() { as.FlushRange(probeData, pages*mem.PageSize) })
				resolve += cpuTime(func() {
					for pg := uint32(0); pg < pages; pg++ {
						if err = as.ResolveSoft(probeData+pg*mem.PageSize, cpu.Write); err != nil {
							return
						}
					}
				})
			}
			if fault != nil {
				return nil, fault
			}
			return []float64{loadHit, loadMiss, storeHit, dirtyFirst,
				resolve / float64(rounds*pages), flush / float64(rounds*pages)}, err
		},
	},
	{
		name: "mmu.ShareCOW",
		defs: []layerDef{hostNS("mmu.sharecow_ns_per_page"), hostNS("mmu.resolvecow_ns_per_page")},
		run: func(p *probeCtx) ([]float64, error) {
			const pages = 256
			alloc := mem.NewAllocator(4 * pages)
			src, dst := mmu.NewAddrSpace(alloc), mmu.NewAddrSpace(alloc)
			for _, as := range []*mmu.AddrSpace{src, dst} {
				size := uint32(pages * mem.PageSize)
				if err := as.Map(&mmu.Mapping{Region: mmu.NewRegion(size, true), Base: probeData, Size: size, Perm: mmu.PermRW}); err != nil {
					return nil, err
				}
				for pg := uint32(0); pg < pages; pg++ {
					if err := as.ResolveSoft(probeData+pg*mem.PageSize, cpu.Write); err != nil {
						return nil, err
					}
				}
			}
			rounds := p.n(200)
			var share, resolve float64
			var err error
			for r := 0; r < rounds && err == nil; r++ {
				share += cpuTime(func() {
					for pg := uint32(0); pg < pages; pg++ {
						va := probeData + pg*mem.PageSize
						if !mmu.ShareCOW(src, va, dst, va) {
							err = fmt.Errorf("ShareCOW declined page %d", pg)
						}
					}
				})
				// Breaking every share from the receiving side copies
				// the page and leaves dst ready to be shared into again.
				resolve += cpuTime(func() {
					for pg := uint32(0); pg < pages && err == nil; pg++ {
						_, err = dst.ResolveCOW(probeData + pg*mem.PageSize)
					}
				})
			}
			return []float64{share / float64(rounds*pages), resolve / float64(rounds*pages)}, err
		},
	},
	{
		name: "mem.Allocator",
		defs: []layerDef{hostNS("mem.alloc_free_ns")},
		run: func(p *probeCtx) ([]float64, error) {
			a := mem.NewAllocator(64)
			n := p.n(1_000_000)
			var err error
			ns := cpuTime(func() {
				for i := 0; i < n; i++ {
					var f *mem.Frame
					if f, err = a.Alloc(); err != nil {
						return
					}
					a.Free(f)
				}
			})
			return []float64{ns / float64(n)}, err
		},
	},
	{
		name: "clock.Clock",
		defs: []layerDef{hostNS("clock.after_cancel_ns"), hostNS("clock.advance_fire_ns")},
		run: func(p *probeCtx) ([]float64, error) {
			c := clock.New()
			for i := 0; i < 64; i++ { // a populated heap, as a busy kernel has
				c.After(uint64(1e12)+uint64(i), nil)
			}
			n := p.n(1_000_000)
			cancel := cpuTime(func() {
				for i := 0; i < n; i++ {
					c.Cancel(c.After(uint64(1000+i%97), nil))
				}
			})
			fired := 0
			fire := cpuTime(func() {
				for i := 0; i < n; i++ {
					c.After(10, nil)
					fired += c.Advance(10)
				}
			})
			if fired != n {
				return nil, fmt.Errorf("clock fired %d of %d timers", fired, n)
			}
			return []float64{cancel / float64(n), fire / float64(n)}, nil
		},
	},
	{
		name: "sched.RunQueue",
		defs: []layerDef{hostNS("sched.enqueue_pick_ns"), hostNS("sched.donate_take_ns")},
		run: func(p *probeCtx) ([]float64, error) {
			rq := sched.NewRunQueue()
			ths := make([]*obj.Thread, 16)
			for i := range ths {
				ths[i] = &obj.Thread{ID: uint32(i + 1), Priority: 4 + i%8, State: obj.ThReady}
				rq.Enqueue(ths[i])
			}
			n := p.n(2_000_000)
			var lost bool
			pick := cpuTime(func() {
				for i := 0; i < n; i++ {
					t := rq.Pick()
					if t == nil {
						lost = true
						return
					}
					rq.Enqueue(t)
				}
			})
			donate := cpuTime(func() {
				for i := 0; i < n; i++ {
					if !rq.Donate(ths[i&15]) || rq.TakeDonation() == nil {
						lost = true
						return
					}
				}
			})
			if lost {
				return nil, fmt.Errorf("run queue lost a thread")
			}
			return []float64{pick / float64(n), donate / float64(n)}, nil
		},
	},
	{
		name: "core.null_syscall",
		defs: []layerDef{hostNS("core.null_syscall_host_ns"), virtualCount("paper.nullsys_interrupt_extra_cycles", "cyc")},
		run: func(p *probeCtx) ([]float64, error) {
			n := p.n(100_000)
			var extra float64
			var err error
			// Two kernels (process and interrupt model), n calls each.
			ns := cpuTime(func() { _, _, extra, err = experiments.NullSyscall(n) })
			return []float64{ns / float64(2*n), extra}, err
		},
	},
	{
		name: "core.null_rpc",
		defs: []layerDef{
			hostNS("core.null_rpc_host_ns"),
			virtualCount("core.null_rpc_virt_cycles", "cyc"),
			higher(virtualCount("paper.nullrpc_fastpath_drop_pct", "%")),
		},
		run: func(p *probeCtx) ([]float64, error) {
			n := p.n(20_000)
			var on experiments.NullRPCResult
			var drop float64
			var err error
			// Two kernels (fast path on and off), n round trips each.
			ns := cpuTime(func() { on, _, drop, err = experiments.NullRPC(n) })
			return []float64{ns / float64(2*n), on.TotalCycles, drop}, err
		},
	},
	{
		name: "core.StatsInto",
		defs: []layerDef{hostNS("core.stats_into_ns")},
		run: func(p *probeCtx) ([]float64, error) {
			k := core.New(core.Config{Model: core.ModelInterrupt, NumCPUs: 64, LockModel: core.LockFine})
			defer k.Shutdown()
			var st core.Stats
			k.StatsInto(&st)
			n := p.n(20_000)
			ns := cpuTime(func() {
				for i := 0; i < n; i++ {
					k.StatsInto(&st)
				}
			})
			return []float64{ns / float64(n)}, nil
		},
	},
	{
		name: "core.interleaver",
		defs: []layerDef{hostNS("core.interleave_host_ns_per_rpc.cpus1"), hostNS("core.interleave_host_ns_per_rpc.cpus16")},
		run: func(p *probeCtx) ([]float64, error) {
			sc := experiments.ScalingScale{Pairs: 4, RPCs: p.n(400), Words: 1024}
			var out []float64
			for _, cpus := range []int{1, 16} {
				var row experiments.ScalingRow
				var err error
				ns := cpuTime(func() { row, err = experiments.IPCScalingCell(cpus, core.LockFine, sc) })
				if err != nil {
					return nil, err
				}
				out = append(out, ns/float64(row.RPCs))
			}
			return out, nil
		},
	},
	{
		name: "ipc.bandwidth",
		defs: []layerDef{hostNS("ipc.copy_host_ns_per_kib"), hostNS("ipc.share_host_ns_per_page")},
		run: func(p *probeCtx) ([]float64, error) {
			// Each cell sends a 64 KiB message 32 times (2 MiB, 512
			// pages) on a fresh kernel; the cell is repeated for length.
			const size, kib, pages = 64 << 10, 2048, 512
			cells := p.n(40)
			var out []float64
			for _, m := range []struct {
				mode  string
				units float64
			}{{"copy", kib}, {"zerocopy", pages}} {
				var err error
				ns := cpuTime(func() {
					for i := 0; i < cells && err == nil; i++ {
						_, err = experiments.BandwidthCell(size, m.mode, 1, core.LockBig)
					}
				})
				if err != nil {
					return nil, err
				}
				out = append(out, ns/(float64(cells)*m.units))
			}
			return out, nil
		},
	},
	{
		name: "checkpoint",
		defs: []layerDef{
			hostNS("ckpt.capture_ns_per_frame"),
			hostNS("ckpt.delta_ns_per_dirty_frame"),
			hostNS("ckpt.apply_ns_per_frame"),
			hostNS("ckpt.restore_ns_per_frame"),
		},
		run: func(p *probeCtx) ([]float64, error) {
			const pages, hot = 512, 64
			k, s, err := writerKernel(pages, hot)
			if err != nil {
				return nil, err
			}
			defer k.Shutdown()
			rounds := p.n(100)
			var capture, delta, apply, restore, frames, dirty float64
			for r := 0; r < rounds; r++ {
				var parent, img *checkpoint.Image
				var d *checkpoint.DeltaImage
				capture += cpuTime(func() { parent, err = checkpoint.SnapshotMemory(k, s) })
				if err != nil {
					return nil, err
				}
				k.RunFor(40 * clock.CyclesPerMicrosecond) // the writer dirties its hot pages
				delta += cpuTime(func() { d, _, err = checkpoint.SnapshotMemoryDelta(k, s, parent) })
				if err != nil {
					return nil, err
				}
				apply += cpuTime(func() { img, err = d.Apply(parent) })
				if err != nil {
					return nil, err
				}
				k2 := core.New(core.Config{Model: core.ModelProcess})
				restore += cpuTime(func() { _, _, err = checkpoint.Restore(k2, img) })
				k2.Shutdown()
				if err != nil {
					return nil, err
				}
				frames += float64(len(img.Frames))
				dirty += float64(len(d.Frames))
			}
			if dirty == 0 {
				return nil, fmt.Errorf("the writer dirtied no page between snapshots")
			}
			return []float64{capture / frames, delta / dirty, apply / frames, restore / frames}, nil
		},
	},
	{
		name: "observers",
		defs: []layerDef{hostNS("profile.add_ns"), hostNS("trace.ring_add_ns"), hostNS("metrics.counter_inc_ns")},
		run: func(p *probeCtx) ([]float64, error) {
			n := p.n(4_000_000)
			shard := profile.New(1).Shard(0)
			add := cpuTime(func() {
				for i := 0; i < n; i++ {
					shard.Add(profile.Path(i%int(profile.NumPaths)), i&63, uint32(i)<<6, 3)
				}
			})
			ring := trace.NewRing(traceRingEvents)
			ringAdd := cpuTime(func() {
				for i := 0; i < n; i++ {
					ring.Add(trace.Event{Time: uint64(i), TID: uint32(i & 7)})
				}
			})
			ctr := metrics.New().Counter("bench.probe")
			inc := cpuTime(func() {
				for i := 0; i < n; i++ {
					ctr.Inc()
				}
			})
			if ctr.Value() != uint64(n) {
				return nil, fmt.Errorf("counter read %d after %d increments", ctr.Value(), n)
			}
			return []float64{add / float64(n), ringAdd / float64(n), inc / float64(n)}, nil
		},
	},
	{
		name: "core.ParallelHost",
		defs: []layerDef{
			hostNS("core.parallelhost.host_ns_per_op"),
			higher(hostCost("core.parallelhost.speedup_vs_serial", "x")),
		},
		run: func(p *probeCtx) ([]float64, error) {
			// The netserve shape on real host threads. Wall time, not CPU
			// time: two busy threads cost twice the CPU for the same wait.
			ncpu := min(runtime.NumCPU(), 2)
			sc := workload.NetserveScale{Queues: 2, Workers: 4, Clients: 8, RPCs: p.n(200), RespWords: 4096}
			ops := float64(sc.Queues * sc.Clients * sc.RPCs)
			run := func(parallel bool) (float64, error) {
				k := core.New(core.Config{Model: core.ModelInterrupt, Preempt: core.PreemptPartial,
					NumCPUs: ncpu, LockModel: core.LockFine, ParallelHost: parallel})
				defer k.Shutdown()
				w, err := workload.NewNetserve(k, sc)
				if err != nil {
					return 0, err
				}
				t0 := time.Now()
				if _, err := w.Run(runBudget); err != nil {
					return 0, err
				}
				ns := float64(time.Since(t0).Nanoseconds())
				return ns, w.Check()
			}
			serial, err := run(false)
			if err != nil {
				return nil, err
			}
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(runtime.NumCPU()))
			par, err := run(true)
			if err != nil {
				return nil, err
			}
			return []float64{par / ops, serial / par}, nil
		},
	},
	{
		name: "paper.tables",
		defs: []layerDef{
			virtualCount("paper.t5_flukeperf_procFP_ratio", "ratio"),
			virtualCount("paper.t5_flukeperf_intPP_ratio", "ratio"),
			virtualCount("paper.t3_client_hard_us", "us"),
		},
		run: func(p *probeCtx) ([]float64, error) {
			// Fast scale at every harness scale: these are the figures
			// EXPERIMENTS.md quotes, and they repeat exactly.
			t5, err := experiments.Table5(experiments.FastTable5Scale())
			if err != nil {
				return nil, err
			}
			var fp, pp float64
			for _, col := range t5 {
				if col.Workload != "flukeperf" {
					continue
				}
				for _, cell := range col.Cells {
					switch cell.Config {
					case "Process FP":
						fp = cell.Normalized
					case "Interrupt PP":
						pp = cell.Normalized
					}
				}
			}
			t3, err := experiments.Table3()
			if err != nil {
				return nil, err
			}
			return []float64{fp, pp, t3[1].RemedyUS}, nil
		},
	},
}

// runProbes runs every probe once, bracketed by calibration loops, and
// returns the values by metric name.
func runProbes(sp *spanRec, smoke bool) (map[string]report.Value, []string) {
	out := map[string]report.Value{}
	var failures []string
	pc := &probeCtx{smoke: smoke}
	sp.scope("probes", 0)
	c0 := calibrate()
	for _, p := range probes {
		var vals []float64
		var err error
		sp.do("probe."+p.name, func() { vals, err = p.run(pc) })
		c1 := calibrate()
		if err != nil {
			failures = append(failures, fmt.Sprintf("probe %s: %v", p.name, err))
			vals = make([]float64, len(p.defs))
		}
		for i, d := range p.defs {
			v := vals[i]
			if d.clock == report.ClockHost && d.Unit == "ns" {
				v *= calibRefNS / ((c0 + c1) / 2)
			}
			out[d.Name] = report.Value{Value: v, Unit: d.Unit, Clock: d.clock}
		}
		c0 = c1
	}
	return out, failures
}
