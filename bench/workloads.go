package main

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand/v2"

	"repro/internal/checkpoint"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/mem"
	"repro/internal/mmu"
	"repro/internal/obj"
	"repro/internal/prog"
	"repro/internal/stats"
	"repro/internal/workload"
)

// workloadDef is one benchmark workload: a name, the reason it exists,
// what one operation is, and a generator that turns the seed's random
// stream into inputs and a repetition function closed over them. The
// program under test sees only the generated inputs, never the seed.
type workloadDef struct {
	name string
	why  string
	op   string
	gen  func(r *rand.Rand, smoke bool) (inputs any, rep func(c *repCtx))
}

// instance is a workloadDef with its inputs drawn.
type instance struct {
	def    *workloadDef
	inputs any
	rep    func(c *repCtx)
}

// instantiate draws w's inputs from the seed. Each workload gets its own
// stream, keyed by its position in the table, so `-workload NAME` runs
// the same inputs the full invocation would.
func instantiate(seed uint64, smoke bool) []instance {
	out := make([]instance, len(workloadDefs))
	for i := range workloadDefs {
		d := &workloadDefs[i]
		r := rand.New(rand.NewPCG(seed, uint64(i)+0x9E3779B97F4A7C15))
		in, rep := d.gen(r, smoke)
		out[i] = instance{def: d, inputs: in, rep: rep}
	}
	return out
}

// band draws an integer from the ±5 % band around v (at least 1): the
// seed moves how many operations a repetition makes, so that no result
// depends on one lucky count, while per-operation metrics stay comparable.
func band(r *rand.Rand, v int) int { return jitter(r, v, 0.05) }

// fine draws from the ±1 % band: parameters that size a single operation
// (words per reply, the mix of call kinds) move per-operation metrics
// one for one, and those have to stay within their bounds across seeds.
func fine(r *rand.Rand, v int) int { return jitter(r, v, 0.01) }

func jitter(r *rand.Rand, v int, width float64) int {
	n := int(math.Round(float64(v) * (1 - width + 2*width*r.Float64())))
	return max(n, 1)
}

// scaled picks the full-size or the smoke-test value of a parameter.
func scaled(smoke bool, full, small int) int {
	if smoke {
		return small
	}
	return full
}

// runBudget is the virtual-cycle backstop handed to Workload.Run: about
// twenty times the longest repetition, so a wedged guest reports failed
// operations after seconds of host time instead of hanging.
const runBudget = 1 << 34

var workloadDefs = []workloadDef{
	{
		name: "gcc_compute",
		why:  "user-mode compute pipeline: internal/cpu (StepN, fused blocks, decode cache) does almost all host work and the kernel almost none",
		op:   "file",
		gen: func(r *rand.Rand, smoke bool) (any, func(*repCtx)) {
			sc := workload.GCCScale{
				Files:  band(r, scaled(smoke, 480, 24)),
				Words:  256,
				Passes: scaled(smoke, 80, 2),
			}
			cfg := core.Config{Model: core.ModelProcess, Preempt: core.PreemptNone}
			g := guest{cfg: cfg, newName: "workload.NewGCC", ops: uint64(sc.Files),
				mk: func(k *core.Kernel) (*workload.Workload, error) { return workload.NewGCC(k, sc) }}
			return sc, g.rep
		},
	},
	{
		name: "memtest_faults",
		why:  "one hard fault and restart per page through the user-mode pager: the Table 3 fault path, register roll-forward and mmu TLB refill dominate, IPC is small",
		op:   "page",
		gen: func(r *rand.Rand, smoke bool) (any, func(*repCtx)) {
			pages := band(r, scaled(smoke, 16384, 96))
			in := struct{ Bytes, PhysFrames int }{pages * mem.PageSize, 40000}
			cfg := core.Config{Model: core.ModelInterrupt, Preempt: core.PreemptPartial, PhysFrames: in.PhysFrames}
			g := guest{cfg: cfg, newName: "workload.NewMemtest", ops: uint64(pages), probed: true,
				mk: func(k *core.Kernel) (*workload.Workload, error) { return workload.NewMemtest(k, uint32(in.Bytes)) },
				check: func(res *repResult) {
					if got := res.v.c.restarts; got != uint64(pages) {
						res.failf(absDiff(got, uint64(pages)), "memtest: %d restarts for %d pages", got, pages)
					}
				}}
			return in, g.rep
		},
	},
	{
		name: "flukeperf_ipc",
		why:  "syscall, mutex, condition-variable and RPC microbenchmarks: internal/core entry/exit, internal/ipc, internal/sched and the handoff path do the work and the interpreter little",
		op:   "syscall",
		gen: func(r *rand.Rand, smoke bool) (any, func(*repCtx)) {
			d := workload.DefaultFlukeperfScale()
			// Six times the default suite. Only the mix of call kinds
			// moves with the seed, and only in the fine band: an operation
			// here is "one system call of the mix", and the few long calls
			// (big transfers, region searches) set the probe's latency,
			// so their share of the run has to stay put.
			mul := scaled(smoke, 6000, 10)
			sc := workload.FlukeperfScale{
				Nulls:        fine(r, d.Nulls*mul/1000),
				MutexPairs:   fine(r, d.MutexPairs*mul/1000),
				PingPong:     fine(r, d.PingPong*mul/1000),
				RPCs:         fine(r, d.RPCs*mul/1000),
				BigTransfers: scaled(smoke, d.BigTransfers*6, 1),
				BigWords:     uint32(scaled(smoke, int(d.BigWords), 16<<10/4)),
				Searches:     scaled(smoke, d.Searches*6, 1),
			}
			cfg := core.Config{Model: core.ModelInterrupt, Preempt: core.PreemptPartial}
			// ops stays 0: one operation is one system call, and how many
			// the guest makes is known only after the run, from Stats.
			g := guest{cfg: cfg, newName: "workload.NewFlukeperf", probed: true,
				mk: func(k *core.Kernel) (*workload.Workload, error) { return workload.NewFlukeperf(k, sc) }}
			return sc, g.rep
		},
	},
	{
		name: "netserve_bulk",
		why:  "32 closed-loop clients fetch 64 KiB replies on 4 CPUs under fine locks: NIC DMA, internal/netsrv, mmu.ShareCOW zero-copy, the lock model and the clock-heap interleaver carry it",
		op:   "connection",
		gen: func(r *rand.Rand, smoke bool) (any, func(*repCtx)) {
			sc := experiments.NetloadScale{Queues: 2, Workers: 4, Clients: scaled(smoke, 16, 2),
				RPCs: band(r, scaled(smoke, 256, 4)),
				// Sixteen full pages ride the zero-copy path; the seed adds
				// a trailer of 1..16 words that is copied, which moves
				// per-connection cost by up to a percent (never 0 words:
				// 64 KiB exactly falls in a smaller allocator size class).
				RespWords: scaled(smoke, 16384, 2048) + 1 + r.IntN(16)}
			return sc, func(c *repCtx) { netserveRep(c, 4, core.LockFine, sc) }
		},
	},
	{
		name: "netserve_small",
		why:  "the same stack on 1 CPU with 1 KiB replies: interrupt- and word-copy-bound instead of bandwidth- and share-bound, so a gain for bulk replies that costs small ones shows",
		op:   "connection",
		gen: func(r *rand.Rand, smoke bool) (any, func(*repCtx)) {
			sc := experiments.NetloadScale{Queues: 2, Workers: 4, Clients: scaled(smoke, 16, 2),
				// 260..266 words. Per-connection latency depends on the reply
				// size through the scheduling pattern it induces, and not
				// smoothly: 253 words read p99 473 us and 254 words 561 us.
				// Across this range it moves by under 1 %, and every reply
				// stays in one allocator size class.
				RPCs: band(r, scaled(smoke, 1500, 8)), RespWords: fine(r, 263)}
			return sc, func(c *repCtx) { netserveRep(c, 1, core.LockBig, sc) }
		},
	},
	{
		name: "migrate_precopy",
		why:  "pre-copy live migrations of a writer space: internal/checkpoint (snapshot, delta, apply, restore) and mmu dirty tracking do the work and IPC none",
		op:   "migration",
		gen: func(r *rand.Rand, smoke bool) (any, func(*repCtx)) {
			// The link model moves in the fine band: downtime is pages
			// times XferCyclesPerPage, so it shifts every latency a little.
			in := migrateInputs{Rounds: 3, XferCyclesPerPage: fine(r, checkpoint.DefaultXferCyclesPerPage)}
			n := band(r, scaled(smoke, 64, 2))
			for i := 0; i < n; i++ {
				in.ResidentPages = append(in.ResidentPages, band(r, scaled(smoke, 1024, 32)))
				in.HotPages = append(in.HotPages, scaled(smoke, 32, 4))
			}
			return in, func(c *repCtx) { migrateRep(c, in) }
		},
	},
}

func absDiff(a, b uint64) uint64 {
	if a > b {
		return a - b
	}
	return b - a
}

// guest is a paper workload (gcc, memtest, flukeperf) ready to repeat.
type guest struct {
	cfg     core.Config
	newName string // span name of the constructor call
	mk      func(*core.Kernel) (*workload.Workload, error)
	ops     uint64 // operations per repetition; 0 means one per system call
	// probed runs the Table 6 apparatus — a top-priority kernel thread
	// woken every millisecond — alongside the guest; its preemption
	// latency (mean and p99; the mean is what the paper's Table 6 reports)
	// is then the workload's latency. Without it (gcc: the probe preempts
	// user code in the same 150 cycles every time, which says nothing
	// about the workload) both latency figures are the mean time per
	// operation of the one closed-loop job stream.
	probed bool
	check  func(*repResult) // extra output check after a complete run
}

// rep is one repetition: build the kernel and the guest, run to
// completion inside the timed region, then check that every Done thread
// exited.
func (g guest) rep(c *repCtx) {
	res := c.res
	k := c.newKernel(g.cfg)
	defer k.Shutdown()
	var w *workload.Workload
	var err error
	c.sp.do(g.newName, func() { w, err = g.mk(k) })
	if err != nil {
		res.v.ops = max(g.ops, 1)
		res.failf(res.v.ops, "%s: %v", g.newName, err)
		return
	}
	var probe *workload.Probe
	if g.probed {
		c.sp.do("workload.InstallProbe", func() {
			probe = workload.InstallProbe(k, workload.DefaultProbePeriod, workload.DefaultProbeWork)
		})
	}
	c.timed("Workload.Run", func() { res.v.cycles, err = w.Run(runBudget) })
	if g.probed {
		probe.Stop()
	}
	c.harvest(k)
	res.v.ops = g.ops
	if g.ops == 0 {
		res.v.ops = max(res.v.c.syscalls, 1)
	}
	if err != nil {
		// Some Done thread never exited (or the budget ran out): no
		// operation's result can be trusted.
		res.failf(res.v.ops, "%v", err)
	}
	if g.probed {
		setLatency(&res.v, &probe.Lat)
	} else {
		mean := clock.Micros(res.v.cycles) / float64(res.v.ops)
		res.v.latMean, res.v.latP99, res.v.latN = mean, mean, int(res.v.ops)
	}
	if g.check != nil && err == nil {
		g.check(res)
	}
}

func setLatency(v *virt, lat *stats.Latency) {
	v.latMean, v.latP99, v.latN = lat.Avg(), lat.P99(), lat.Count()
}

// netserveRep is one repetition of a netserve workload. The end-to-end
// pass goes through experiments.NetloadCell, which builds the kernel,
// attaches the server, runs the client fleet and returns per-connection
// latency percentiles — construction is inside the timed call because
// NetloadCell hides its kernel. The per-layer pass needs that kernel (for
// counters and to attach observers), so it builds the same stack at the
// same configuration and scale through workload.NewNetserve.
func netserveRep(c *repCtx, cpus int, lm core.LockModel, sc experiments.NetloadScale) {
	res := c.res
	conns := uint64(sc.Conns())
	res.v.ops = conns
	cfg := core.Config{Model: core.ModelInterrupt, Preempt: core.PreemptPartial, NumCPUs: cpus, LockModel: lm}

	if c.mode == modeE2E {
		// setup_s for this workload is the same construction done once
		// more outside the timed call, then thrown away.
		kb := c.newKernel(cfg)
		_, err := workload.NewNetserve(kb, workload.NetserveScale(sc))
		kb.Shutdown()
		if err != nil {
			res.failf(conns, "workload.NewNetserve: %v", err)
			return
		}
		var r experiments.NetloadResult
		c.timed("experiments.NetloadCell", func() {
			r, err = experiments.NetloadCell(experiments.NetloadTuned, cpus, lm, sc)
		})
		if err != nil {
			res.failf(conns, "NetloadCell: %v", err)
			return
		}
		res.v.cycles = clock.Cycles(r.ElapsedUS)
		res.v.kernelCycles = r.KernelCycles
		// NetloadCell returns percentiles but no mean. The fleet is a
		// closed loop with no think time, so the mean time a client
		// spends per connection is concurrency x elapsed / connections.
		res.v.latMean = float64(sc.Queues*sc.Clients) * r.ElapsedUS / float64(r.Conns)
		res.v.latP99, res.v.latN = r.P99, r.Conns
		res.v.c.nic = r.NIC
		res.v.c.zcShares = r.ZeroCopyShares
		checkNetserve(res, uint64(r.Errors), r.NIC.RxFrames)
		return
	}

	k := c.newKernel(cfg)
	defer k.Shutdown()
	var w *workload.Workload
	var err error
	c.sp.do("workload.NewNetserve", func() { w, err = workload.NewNetserve(k, workload.NetserveScale(sc)) })
	if err != nil {
		res.failf(conns, "workload.NewNetserve: %v", err)
		return
	}
	c.timed("Workload.Run", func() {
		_, err = w.Run(runBudget)
		res.v.cycles = k.Now()
	})
	c.harvest(k)
	res.v.c.nic = w.NIC.Counters()
	if err != nil {
		res.failf(conns, "%v", err)
		return
	}
	var stampErr error
	c.sp.do("Workload.Check", func() { stampErr = w.Check() })
	if stampErr != nil {
		res.failf(1, "%v", stampErr)
	}
	checkNetserve(res, 0, res.v.c.nic.RxFrames)
}

// checkNetserve counts wrong replies: stamp mismatches the clients saw,
// and any difference between connections made and frames the NIC
// delivered.
func checkNetserve(res *repResult, stampErrors, rxFrames uint64) {
	if stampErrors != 0 {
		res.failf(stampErrors, "netserve: %d response stamp mismatches", stampErrors)
	}
	if rxFrames != res.v.ops {
		res.failf(absDiff(rxFrames, res.v.ops), "netserve: NIC delivered %d frames for %d connections", rxFrames, res.v.ops)
	}
}

// migrateInputs sizes one repetition of migrate_precopy: one entry per
// migration, so sizes differ between migrations of a repetition but not
// between repetitions.
type migrateInputs struct {
	ResidentPages []int // resident set of each migrated space
	HotPages      []int // pages its writer rewrites every 20 µs
	Rounds        int   // pre-copy round budget

	XferCyclesPerPage int // modelled cycles to ship one frame
}

// Guest layout of the migrated writer space, as in experiments.MigrateCell.
const (
	migCode = 0x0001_0000
	migBase = 0x0100_0000
)

// migrateRep is one repetition: for each migration, build the writer
// space exactly as experiments.MigrateCell does (outside the timed
// region), then time checkpoint.MigratePrecopy and the destination's
// first RunFor. Between the two the restored memory is compared with the
// frozen source, and afterwards the writer must have kept writing.
func migrateRep(c *repCtx, in migrateInputs) {
	res := c.res
	res.v.ops = uint64(len(in.ResidentPages))
	var downtime stats.Latency
	for i, pages := range in.ResidentPages {
		ws, hot := uint32(pages)*mem.PageSize, in.HotPages[i]
		cfg := core.Config{Model: core.ModelProcess}
		k1 := c.newKernel(cfg)
		s, err := newWriterSpace(k1, ws, hot)
		if err != nil {
			res.failf(1, "migrate %d: %v", i, err)
			k1.Shutdown()
			continue
		}
		k1.RunFor(100 * clock.CyclesPerMicrosecond)
		k2 := c.newKernel(cfg)

		var s2 *obj.Space
		var threads []*obj.Thread
		var rep *checkpoint.MigrateReport
		opt := checkpoint.MigrateOptions{Rounds: in.Rounds, XferCyclesPerPage: uint64(in.XferCyclesPerPage)}
		c.timed("checkpoint.MigratePrecopy", func() {
			s2, threads, rep, err = checkpoint.MigratePrecopy(k1, s, k2, opt)
		})
		if err != nil {
			res.failf(1, "migrate %d: %v", i, err)
			k1.Shutdown()
			k2.Shutdown()
			continue
		}
		ok := true
		c.sp.do("compare memory", func() {
			if !sameMemory(s, s2, ws) {
				ok = false
				res.failf(1, "migrate %d: restored memory differs from the source", i)
			}
		})
		// Run the destination until the writer has completed five more
		// periods there. (A fixed RunFor would not do: a writer that
		// migrated inside its sleep resumes only when the destination's
		// clock, which starts at zero, reaches a deadline set on the
		// source's clock.)
		target := writerProgress(k2, s2) + 5
		limit := k1.Now() + 1000*clock.CyclesPerMicrosecond
		c.timed("Kernel.RunUntil", func() {
			k2.RunUntil(func() bool { return writerProgress(k2, s2) >= target || k2.Now() >= limit })
		})
		if ok {
			for _, t := range threads {
				if t.Exited {
					ok = false
				}
			}
			if !ok || writerProgress(k2, s2) < target {
				res.failf(1, "migrate %d: writer did not keep running on the destination", i)
			}
		}

		downtime.Add(clock.Micros(rep.DowntimeCycles))
		res.v.cycles += rep.TotalCycles
		res.v.c.ckptBaseline += uint64(rep.Rounds[0].Frames)
		res.v.c.ckptResidual += uint64(rep.Rounds[len(rep.Rounds)-1].Frames)
		res.v.c.ckptRounds += uint64(len(rep.Rounds))
		res.v.c.ckptDowntime += rep.DowntimeCycles
		res.v.c.ckptStopCopy += rep.StopAndCopyDowntime(opt)
		c.harvest(k1)
		c.harvest(k2)
		k1.Shutdown()
		k2.Shutdown()
	}
	setLatency(&res.v, &downtime)
}

// newWriterSpace builds a space with ws resident bytes and a thread that
// rewrites the first hot pages with an incrementing counter every 20 µs.
func newWriterSpace(k *core.Kernel, ws uint32, hot int) (*obj.Space, error) {
	s := k.NewSpace()
	reg, err := k.NewBoundRegion(s, core.KObjBase+0x910, ws, true)
	if err != nil {
		return nil, err
	}
	if _, err := k.MapInto(s, reg, migBase, 0, ws, mmu.PermRW); err != nil {
		return nil, err
	}
	// Touch every page: the space's residency is the full working set.
	// (MigrateCell writes ws zero bytes; one per demand-zero page leaves
	// the same memory and costs the harness a thousandth of the time.)
	for off := uint32(0); off < ws; off += mem.PageSize {
		if err := k.WriteMem(s, migBase+off, []byte{0}); err != nil {
			return nil, err
		}
	}
	b := prog.New(migCode)
	b.Label("w").Movi(6, 1).Label("w.loop")
	for p := 0; p < hot; p++ {
		b.Movi(4, migBase+uint32(p)*mem.PageSize).St(4, 0, 6)
	}
	b.ThreadSleepUS(20).Addi(6, 6, 1).Jmp("w.loop")
	img, err := b.Assemble()
	if err != nil {
		return nil, err
	}
	if _, err := k.LoadImage(s, migCode, img); err != nil {
		return nil, err
	}
	th := k.NewThread(s, 10)
	th.Regs.PC = b.Addr("w")
	k.StartThread(th)
	return s, nil
}

// sameMemory compares the writer window of two spaces frame by frame.
func sameMemory(a, b *obj.Space, ws uint32) bool {
	ma, mb := a.AS.MappingAt(migBase), b.AS.MappingAt(migBase)
	if ma == nil || mb == nil {
		return false
	}
	for off := uint32(0); off < ws; off += mem.PageSize {
		fa, fb := ma.Region.FrameAt(ma.RegionOff+off), mb.Region.FrameAt(mb.RegionOff+off)
		if fa == nil || fb == nil || !bytes.Equal(fa.Data, fb.Data) {
			return false
		}
	}
	return true
}

// writerProgress reads the writer's counter from the first hot page.
func writerProgress(k *core.Kernel, s *obj.Space) uint32 {
	b, err := k.ReadMem(s, migBase, 4)
	if err != nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}
