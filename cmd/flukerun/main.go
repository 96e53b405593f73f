// Command flukerun runs one of the paper's workloads (flukeperf, memtest,
// gcc) on a chosen kernel configuration and reports timing and kernel
// statistics — the raw material behind Tables 5 and 6.
//
// Usage:
//
//	flukerun -workload flukeperf -model interrupt -preempt pp
//	flukerun -workload memtest -mb 16 -model process -preempt fp -probe
//	flukerun -workload flukeperf -fast -metrics -trace-out run.json
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"sort"

	"repro/internal/checkpoint"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/mmu"
	"repro/internal/observe"
	"repro/internal/sys"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	wl := flag.String("workload", "flukeperf", "workload: flukeperf | memtest | gcc | diskbench | netserve")
	model := flag.String("model", "process", "execution model: process | interrupt")
	preempt := flag.String("preempt", "np", "preemption: np | pp | fp")
	mb := flag.Uint("mb", 16, "memtest working set in MB")
	probe := flag.Bool("probe", false, "install the 1 ms high-priority latency probe")
	fastFlag := flag.Bool("fast", false, "scaled-down workload")
	traceLines := flag.Bool("trace", false, "trace every syscall completion as it happens")
	traceBuf := flag.Int("tracebuf", 0, "dump the last N typed kernel trace events after the run")
	topN := flag.Int("top", 10, "show the N most frequent syscalls")
	metricsFlag := flag.Bool("metrics", false, "attach the kernel metrics registry and print its snapshot")
	traceOut := flag.String("trace-out", "", "write the kernel trace as Perfetto/Chrome trace_event JSON to FILE")
	cpus := flag.Int("cpus", 1, "number of simulated CPUs")
	lockmodel := flag.String("lockmodel", "big", "kernel lock model: big | fine")
	noFastpath := flag.Bool("no-ipc-fastpath", false, "disable the IPC direct-handoff fast path")
	noZeroCopy := flag.Bool("no-zerocopy", false, "disable zero-copy bulk IPC (copy-on-write frame sharing)")
	noNICCoalesce := flag.Bool("no-nic-coalesce", false, "disable NIC interrupt coalescing (one interrupt per received frame)")
	tlbSize := flag.Int("tlbsize", 0, "software TLB entries per address space (0 = default 256, rounded up to a power of two)")
	traceRing := flag.Int("trace-ring", 1<<18, "trace ring capacity in events (for -trace-out, -spans, and -listen; older events drop once it wraps)")
	profileOut := flag.String("profile-out", "", "enable the cycle profiler and write its pprof protobuf to FILE (go tool pprof FILE)")
	profileFolded := flag.String("profile-folded", "", "enable the cycle profiler and write folded stacks to FILE (flamegraph.pl / speedscope input)")
	spansFlag := flag.Bool("spans", false, "enable causal IPC spans (Perfetto flow events in the -trace-out / -listen export)")
	listen := flag.String("listen", "", "serve live observation on ADDR (:8080): /metrics Prometheus text, /profile pprof, /trace Perfetto JSON; implies -metrics and the profiler")
	ckptUS := flag.Uint64("checkpoint", 0, "warm-snapshot the workload space every N virtual µs (first full, then incremental deltas) and print the checkpoint accounting")
	flag.Parse()

	cfg := core.Config{
		NumCPUs: *cpus, DisableIPCFastPath: *noFastpath,
		DisableZeroCopy:    *noZeroCopy,
		DisableNICCoalesce: *noNICCoalesce,
		TLBSize:            *tlbSize,
		EnableProfiler:     *profileOut != "" || *profileFolded != "" || *listen != "",
		EnableIPCSpans:     *spansFlag,
	}
	lm, lmErr := core.ParseLockModel(*lockmodel)
	if lmErr != nil {
		usage(lmErr)
	}
	cfg.LockModel = lm
	if *cpus < 1 || *cpus > core.MaxCPUs {
		usage(fmt.Errorf("-cpus %d out of range: want 1..%d", *cpus, core.MaxCPUs))
	}
	switch *model {
	case "process":
		cfg.Model = core.ModelProcess
	case "interrupt":
		cfg.Model = core.ModelInterrupt
	default:
		fail(fmt.Errorf("unknown model %q", *model))
	}
	switch *preempt {
	case "np":
		cfg.Preempt = core.PreemptNone
	case "pp":
		cfg.Preempt = core.PreemptPartial
	case "fp":
		cfg.Preempt = core.PreemptFull
	default:
		fail(fmt.Errorf("unknown preemption %q", *preempt))
	}
	if err := cfg.Validate(); err != nil {
		fail(err)
	}
	if *traceLines {
		cfg.TraceSyscalls = func(line string) { fmt.Println(line) }
	}

	k := core.New(cfg)
	var m *core.KernelMetrics
	if *metricsFlag || *listen != "" {
		m = k.EnableMetrics()
	}
	var ring *trace.Ring
	if *traceBuf > 0 {
		ring = trace.NewRing(*traceBuf)
		k.Tracer = ring
	} else if *traceOut != "" || *spansFlag || *listen != "" {
		// The exporter needs the typed event ring even when the user
		// didn't ask for a textual dump; the default 256Ki events is a
		// few seconds of flukeperf (tune with -trace-ring).
		ring = trace.NewRing(*traceRing)
		k.Tracer = ring
	}
	var (
		w   *workload.Workload
		err error
	)
	switch *wl {
	case "flukeperf":
		sc := workload.DefaultFlukeperfScale()
		if *fastFlag {
			sc = workload.SmallFlukeperfScale()
		}
		w, err = workload.NewFlukeperf(k, sc)
	case "memtest":
		w, err = workload.NewMemtest(k, uint32(*mb)<<20)
	case "gcc":
		sc := workload.DefaultGCCScale()
		if *fastFlag {
			sc = workload.SmallGCCScale()
		}
		w, err = workload.NewGCC(k, sc)
	case "diskbench":
		sc := workload.DefaultDiskbenchScale()
		if *fastFlag {
			sc = workload.SmallDiskbenchScale()
		}
		w, err = workload.NewDiskbench(k, sc)
	case "netserve":
		sc := workload.DefaultNetserveScale()
		if *fastFlag {
			sc = workload.SmallNetserveScale()
		}
		w, err = workload.NewNetserve(k, sc)
	default:
		err = fmt.Errorf("unknown workload %q", *wl)
	}
	if err != nil {
		fail(err)
	}

	var p *workload.Probe
	if *probe {
		p = workload.InstallProbe(k, 0, 0)
	}

	// The live endpoint: HTTP handlers park, the simulation loop answers
	// at its next inter-dispatch boundary via the RunPolling hook.
	var poll func()
	if *listen != "" {
		srv, err := observe.Listen(*listen)
		if err != nil {
			fail(err)
		}
		defer srv.Close()
		take := func() observe.Snapshot {
			var snap observe.Snapshot
			snap.VirtualNow = k.Now()
			if m != nil {
				k.SyncTraceMetrics()
				if w.NIC != nil {
					w.NIC.PublishMetrics(m.Registry)
				}
				var buf bytes.Buffer
				if err := m.Registry.Snapshot().WritePrometheus(&buf); err == nil {
					snap.Metrics = buf.Bytes()
				}
			}
			if k.ProfileEnabled() {
				var buf bytes.Buffer
				if err := k.ProfileSnapshot().WritePprof(&buf); err == nil {
					snap.Profile = buf.Bytes()
				}
			}
			if ring != nil {
				var buf bytes.Buffer
				if err := ring.ExportJSON(&buf); err == nil {
					snap.Trace = buf.Bytes()
				}
			}
			return snap
		}
		poll = func() { srv.Poll(take) }
		fmt.Printf("observing on http://%s (/metrics /profile /trace)\n", srv.Addr())
	}

	// Periodic warm checkpoints: the first poll past each interval takes
	// a memory snapshot of the workload's space without stopping it — a
	// full one the first time, incremental deltas after. The dirty
	// tracker keeps the deltas proportional to the write rate, and the
	// accounting below shows what that saves over full snapshots.
	var ck struct {
		base                  *checkpoint.Image
		fulls, deltas         int
		fullBytes, deltaBytes int
		cleanFrames           int
	}
	if *ckptUS > 0 {
		if len(w.Done) == 0 {
			fail(fmt.Errorf("-checkpoint: workload %s has no completion threads to locate a space", w.Name))
		}
		ckSpace := w.Done[0].Space
		interval := *ckptUS * clock.CyclesPerMicrosecond
		next := k.Now() + interval
		inner := poll
		poll = func() {
			if inner != nil {
				inner()
			}
			if k.Now() < next || ckSpace.Dead {
				return
			}
			next = k.Now() + interval
			if ck.base == nil {
				img, err := checkpoint.SnapshotMemory(k, ckSpace)
				if err != nil {
					fail(err)
				}
				ck.base = img
				ck.fulls++
				ck.fullBytes += img.FrameBytes()
				return
			}
			d, img, err := checkpoint.SnapshotMemoryDelta(k, ckSpace, ck.base)
			if err != nil {
				fail(err)
			}
			ck.base = img
			ck.deltas++
			ck.deltaBytes += d.FrameBytes()
			ck.cleanFrames += d.CleanFrames
		}
	}

	cycles, err := w.RunPolling(1<<62, poll)
	if err != nil {
		fail(err)
	}
	if w.Check != nil {
		if err := w.Check(); err != nil {
			fail(err)
		}
	}

	mp := ""
	if *cpus > 1 {
		mp = fmt.Sprintf(" (%d CPUs, %s lock)", *cpus, cfg.LockModel)
	}
	fmt.Printf("workload %s on %s%s: %.2f virtual ms (%d cycles)\n",
		w.Name, cfg.Name(), mp, float64(cycles)/(clock.CyclesPerMicrosecond*1000), cycles)
	st := k.Stats()
	s := &st
	fmt.Printf("  syscalls        %12d\n", s.Syscalls)
	fmt.Printf("  restarts        %12d\n", s.Restarts)
	fmt.Printf("  context switches%12d\n", s.ContextSwitches)
	fmt.Printf("  user cycles     %12d\n", s.UserCycles)
	fmt.Printf("  kernel cycles   %12d\n", s.KernelCycles)
	fmt.Printf("  idle cycles     %12d\n", s.IdleCycles)
	fmt.Printf("  preemptions: user %d, ipc-point %d, in-kernel %d\n",
		s.PreemptsUser, s.PreemptsPoint, s.PreemptsKernel)
	fmt.Printf("  ipc fastpath: hits %d, misses %d, fallbacks %d\n",
		s.FastpathHits, s.FastpathMisses, s.FastpathFallbacks)
	fmt.Printf("  ipc zerocopy: shares %d, cow breaks %d, fallbacks %d\n",
		s.ZeroCopyShares, s.ZeroCopyCOWBreaks, s.ZeroCopyFallbacks)
	if *ckptUS > 0 {
		avoided := ck.cleanFrames * int(mem.PageSize)
		ratio := 0.0
		if ck.deltaBytes+avoided > 0 {
			ratio = float64(ck.deltaBytes) / float64(ck.deltaBytes+avoided)
		}
		fmt.Printf("  ckpt: %d full (%d KiB), %d delta (%d KiB shipped, %d KiB clean-skipped, incremental ratio %.3f)\n",
			ck.fulls, ck.fullBytes>>10, ck.deltas, ck.deltaBytes>>10, avoided>>10, ratio)
	}
	if w.NIC != nil {
		nc := w.NIC.Counters()
		fmt.Printf("  nic: irqs %d, coalesced %d, drains %d, ring-full stalls %d, unshares %d\n",
			nc.IRQs, nc.Coalesced, nc.Drains, nc.RingFullStalls, nc.Unshares)
		fmt.Printf("  nic bytes: tx %d (%d frames), rx %d (%d frames)\n",
			nc.TxBytes, nc.TxFrames, nc.RxBytes, nc.RxFrames)
	}
	es := k.ExecStats()
	fmt.Printf("  cpu decode: pages %d, stale resets %d\n", es.PagesDecoded, es.StaleResets)
	fmt.Printf("  cpu blocks: built %d, hits %d (%d counted-loop passes, %d skipped), bails %d, invalidations %d\n",
		es.BlocksBuilt, es.BlockHits, es.LoopPasses, es.LoopSkips, es.BlockBails, es.BlockInvalidations)
	if *cpus > 1 {
		fmt.Printf("  cross-CPU: ipis %d, steals %d\n", s.IPIs, s.Steals)
		for _, ls := range k.LockStats() {
			if ls.Acquires > 0 {
				fmt.Printf("  lock %-5s acquires %8d contended %6d wait %10d cycles\n",
					ls.Name, ls.Acquires, ls.Contended, ls.WaitCycles)
			}
		}
		if cfg.LockModel == core.LockFine {
			// Per-instance breakdown: which queues and spaces actually
			// contend. Capped to the busiest instances; the per-kind rows
			// above carry the totals.
			inst := k.FineLockStats()
			sort.Slice(inst, func(i, j int) bool { return inst[i].Acquires > inst[j].Acquires })
			const top = 12
			fmt.Printf("  fine lock instances (top %d by acquires):\n", top)
			for i, ls := range inst {
				if i >= top || ls.Acquires == 0 {
					break
				}
				fmt.Printf("    %-8s acquires %8d contended %6d wait %10d cycles\n",
					ls.Name, ls.Acquires, ls.Contended, ls.WaitCycles)
			}
		}
	}
	for _, cl := range []mmu.FaultClass{mmu.FaultSoft, mmu.FaultHard} {
		for _, side := range []core.FaultSide{core.FaultSame, core.FaultCross} {
			key := core.FaultKey{Class: cl, Side: side}
			if n := s.FaultCount[key]; n > 0 {
				sideName := "client-side"
				if side == core.FaultCross {
					sideName = "server-side"
				}
				fmt.Printf("  %s %s faults: %d (avg remedy %.1f µs, avg rollback %.2f µs)\n",
					sideName, cl, n,
					float64(s.FaultRemedy[key])/float64(n)/clock.CyclesPerMicrosecond,
					float64(s.FaultRollback[key])/float64(n)/clock.CyclesPerMicrosecond)
			}
		}
	}
	if p != nil {
		fmt.Printf("  probe: avg %.2f µs, p50 %.2f, p95 %.2f, p99 %.2f, max %.1f µs, runs %d, missed %d\n",
			p.Lat.Avg(), p.Lat.P50(), p.Lat.P95(), p.Lat.P99(), p.Lat.Max(), p.Runs, p.Misses)
		p.Stop()
	}

	type nc struct {
		n int
		c uint64
	}
	var tops []nc
	for n, c := range s.SyscallsByNum {
		if c > 0 {
			tops = append(tops, nc{n, c})
		}
	}
	sort.Slice(tops, func(i, j int) bool { return tops[i].c > tops[j].c })
	if len(tops) > *topN {
		tops = tops[:*topN]
	}
	fmt.Println("  top syscalls:")
	for _, t := range tops {
		fmt.Printf("    %-40s %10d\n", sys.Name(t.n), t.c)
	}
	if m != nil {
		k.SyncTraceMetrics()
		if w.NIC != nil {
			w.NIC.PublishMetrics(m.Registry)
		}
		fmt.Print(m.Registry.Render("kernel metrics"))
	}
	if k.ProfileEnabled() {
		snap := k.ProfileSnapshot()
		fmt.Printf("  profiled cycles: %d attributed (overflow %d)\n", snap.TotalCycles(), snap.Overflow)
		fmt.Println("  top attribution triples (path / syscall / pc-bucket):")
		for _, s := range snap.Top(10) {
			fmt.Printf("    %-16s %-40s %-14s %12d\n", s.Path, s.SysName(), s.PCLabel(), s.Cycles)
		}
		if *profileOut != "" {
			f, err := os.Create(*profileOut)
			if err != nil {
				fail(err)
			}
			if err := snap.WritePprof(f); err != nil {
				f.Close()
				fail(err)
			}
			if err := f.Close(); err != nil {
				fail(err)
			}
			fmt.Printf("wrote cycle profile to %s — open with `go tool pprof %s`\n", *profileOut, *profileOut)
		}
		if *profileFolded != "" {
			f, err := os.Create(*profileFolded)
			if err != nil {
				fail(err)
			}
			if err := snap.WriteFolded(f); err != nil {
				f.Close()
				fail(err)
			}
			if err := f.Close(); err != nil {
				fail(err)
			}
			fmt.Printf("wrote folded stacks to %s — flamegraph.pl or speedscope input\n", *profileFolded)
		}
	}
	if ring != nil && *traceBuf > 0 {
		fmt.Println("kernel trace (most recent events):")
		fmt.Print(ring.Dump())
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fail(err)
		}
		if err := ring.ExportJSON(f); err != nil {
			f.Close()
			fail(err)
		}
		if err := f.Close(); err != nil {
			fail(err)
		}
		fmt.Printf("wrote %d trace events (%d dropped) to %s — open in https://ui.perfetto.dev or chrome://tracing\n",
			ring.Len(), ring.Dropped(), *traceOut)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "flukerun:", err)
	os.Exit(1)
}

// usage reports a bad flag value and exits with the flag package's usage
// text and conventional status 2 — no silent defaulting.
func usage(err error) {
	fmt.Fprintln(os.Stderr, "flukerun:", err)
	flag.Usage()
	os.Exit(2)
}
