package main

import (
	"repro/bench/report"
	"repro/internal/profile"
)

// The metric catalogue. BENCHMARK.json at the repository root is this
// table printed by `-print-spec`; TestSpecMatchesCatalogue keeps the two
// from drifting apart.

// endToEnd are the metrics a user of the system would see, reported for
// every workload. All are lower-is-better. Bounds are shares of the
// parent's median. The driver compares medians over runs with different
// seeds, so each bound is about three times the widest spread any workload
// showed across ten seeds (README, "Spread"); for one seed the virtual
// metrics repeat exactly and benchdiff -expect-virtual-identical holds
// them to that.
var endToEnd = []report.EndToEndMetric{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "host_cal_ns_per_op", Unit: "ns", Better: "lower", Bound: 0.12},
	{Name: "host_alloc_bytes_per_op", Unit: "B", Better: "lower", Bound: 0.10},
	{Name: "virt_cycles_per_op", Unit: "cyc", Better: "lower", Bound: 0.04},
	{Name: "virt_kernel_cycles_per_op", Unit: "cyc", Better: "lower", Bound: 0.04},
	{Name: "virt_lat_mean_us", Unit: "us", Better: "lower", Bound: 0.15},
	{Name: "virt_lat_p99_us", Unit: "us", Better: "lower", Bound: 0.10},
}

// layerDef is one per-layer metric: its BENCHMARK.json entry plus the
// clock it is measured on (benchdiff -expect-virtual-identical demands
// that virtual ones match exactly).
type layerDef struct {
	report.LayerMetric
	clock string
}

func virtualCount(name, unit string) layerDef {
	return layerDef{report.LayerMetric{Name: name, Unit: unit, Better: "lower"}, report.ClockVirtual}
}

func hostCost(name, unit string) layerDef {
	return layerDef{report.LayerMetric{Name: name, Unit: unit, Better: "lower"}, report.ClockHost}
}

// counterDefs are read from the kernel after a run, per guest operation
// unless the unit says otherwise. Counts are work done, so fewer per
// operation is the better direction for all but the cache-hit and
// handoff counters.
var counterDefs = []struct {
	layerDef
	get func(v *virt) float64
}{
	{virtualCount("cpu.user_cycles", "cyc/op"), func(v *virt) float64 { return perOp(v.c.userCycles, v) }},
	{virtualCount("cpu.pages_decoded", "1/op"), func(v *virt) float64 { return perOp(v.c.exec.PagesDecoded, v) }},
	{virtualCount("cpu.blocks_built", "1/op"), func(v *virt) float64 { return perOp(v.c.exec.BlocksBuilt, v) }},
	{higher(virtualCount("cpu.block_hits", "1/op")), func(v *virt) float64 { return perOp(v.c.exec.BlockHits, v) }},
	{virtualCount("cpu.block_bails", "1/op"), func(v *virt) float64 { return perOp(v.c.exec.BlockBails, v) }},
	{virtualCount("cpu.stale_resets", "1/op"), func(v *virt) float64 { return perOp(v.c.exec.StaleResets, v) }},
	{virtualCount("cpu.block_invalidations", "1/op"), func(v *virt) float64 { return perOp(v.c.exec.BlockInvalidations, v) }},
	{virtualCount("core.syscalls", "1/op"), func(v *virt) float64 { return perOp(v.c.syscalls, v) }},
	{virtualCount("core.restarts", "1/op"), func(v *virt) float64 { return perOp(v.c.restarts, v) }},
	{virtualCount("core.preempts_user", "1/op"), func(v *virt) float64 { return perOp(v.c.preemptsUser, v) }},
	{virtualCount("core.preempts_point", "1/op"), func(v *virt) float64 { return perOp(v.c.preemptsPoint, v) }},
	{virtualCount("core.timer_irqs", "1/op"), func(v *virt) float64 { return perOp(v.c.timerIRQs, v) }},
	{virtualCount("core.idle_cycles", "cyc/op"), func(v *virt) float64 { return perOp(v.c.idleCycles, v) }},
	{virtualCount("sched.ctxswitches", "1/op"), func(v *virt) float64 { return perOp(v.c.ctxSwitches, v) }},
	{higher(virtualCount("sched.handoffs", "1/op")), func(v *virt) float64 { return perOp(v.c.handoffs, v) }},
	{virtualCount("sched.steals", "1/op"), func(v *virt) float64 { return perOp(v.c.steals, v) }},
	{virtualCount("sched.ipis", "1/op"), func(v *virt) float64 { return perOp(v.c.ipis, v) }},
	{virtualCount("ipc.fastpath_misses", "1/op"), func(v *virt) float64 { return perOp(v.c.fastpathMisses, v) }},
	{virtualCount("ipc.fastpath_fallbacks", "1/op"), func(v *virt) float64 { return perOp(v.c.fastpathFallbacks, v) }},
	{higher(virtualCount("ipc.zerocopy_shares", "1/op")), func(v *virt) float64 { return perOp(v.c.zcShares, v) }},
	{virtualCount("ipc.zerocopy_fallbacks", "1/op"), func(v *virt) float64 { return perOp(v.c.zcFallbacks, v) }},
	{virtualCount("ipc.cow_breaks", "1/op"), func(v *virt) float64 { return perOp(v.c.cowBreaks, v) }},
	{virtualCount("mmu.faults_soft", "1/op"), func(v *virt) float64 { return perOp(v.c.faultsSoft, v) }},
	{virtualCount("mmu.faults_hard", "1/op"), func(v *virt) float64 { return perOp(v.c.faultsHard, v) }},
	{virtualCount("mmu.faults_cow", "1/op"), func(v *virt) float64 { return perOp(v.c.faultsCOW, v) }},
	{virtualCount("mmu.fault_remedy_cycles", "cyc/op"), func(v *virt) float64 { return perOp(v.c.faultRemedy, v) }},
	{virtualCount("mmu.fault_rollback_cycles", "cyc/op"), func(v *virt) float64 { return perOp(v.c.faultRollback, v) }},
	{virtualCount("mem.frames_peak", "count"), func(v *virt) float64 { return float64(v.c.framesPeak) }},
	{virtualCount("core.lock.acquires", "1/op"), func(v *virt) float64 { return perOp(v.c.lockAcquires, v) }},
	{virtualCount("core.lock.contended_pct", "%"), func(v *virt) float64 { return pct(v.c.lockContended, v.c.lockAcquires) }},
	{virtualCount("core.lock.wait_cycles", "cyc/op"), func(v *virt) float64 { return perOp(v.c.lockWait, v) }},
	{virtualCount("dev.nic.irqs", "1/op"), func(v *virt) float64 { return perOp(v.c.nic.IRQs, v) }},
	{virtualCount("dev.nic.drains", "1/op"), func(v *virt) float64 { return perOp(v.c.nic.Drains, v) }},
	{higher(virtualCount("dev.nic.coalesced_pct", "%")), func(v *virt) float64 { return pct(v.c.nic.Coalesced, v.c.nic.RxFrames) }},
	{virtualCount("dev.nic.ring_stalls", "1/op"), func(v *virt) float64 { return perOp(v.c.nic.RingFullStalls, v) }},
	{virtualCount("dev.nic.unshares", "1/op"), func(v *virt) float64 { return perOp(v.c.nic.Unshares, v) }},
	{virtualCount("ckpt.baseline_frames", "1/op"), func(v *virt) float64 { return perOp(v.c.ckptBaseline, v) }},
	{virtualCount("ckpt.residual_frames", "1/op"), func(v *virt) float64 { return perOp(v.c.ckptResidual, v) }},
	{virtualCount("ckpt.rounds", "1/op"), func(v *virt) float64 { return perOp(v.c.ckptRounds, v) }},
	{virtualCount("ckpt.downtime_ratio_vs_stopcopy", "ratio"), func(v *virt) float64 { return pct(v.c.ckptDowntime, v.c.ckptStopCopy) / 100 }},
}

func higher(d layerDef) layerDef {
	d.Better = "higher"
	return d
}

func perOp(n uint64, v *virt) float64 { return float64(n) / float64(max(v.ops, 1)) }

func pct(n, of uint64) float64 {
	if of == 0 {
		return 0
	}
	return 100 * float64(n) / float64(of)
}

// tracedDefs come from the traced repetition and from comparing it with
// the untraced ones.
func tracedDefs() []layerDef {
	var out []layerDef
	for _, p := range profile.PathNames {
		out = append(out, virtualCount("prof."+p+".cyc_per_op", "cyc/op"))
	}
	return append(out,
		virtualCount("trace.ring_dropped", "count"),
		hostCost("harness.trace_overhead_pct", "%"),
	)
}

// harnessDefs describe the measurement itself.
var harnessDefs = []layerDef{
	higher(hostCost("core.sim_mcyc_per_host_s", "Mcyc/s")),
	hostCost("harness.calib_ns_median", "ns"),
	hostCost("harness.calib_spread_pct", "%"),
	hostCost("harness.raw_host_ns_per_op", "ns"),
	hostCost("harness.rep_iqr_pct", "%"),
	hostCost("harness.netserve_setup_share_pct", "%"),
	hostCost("harness.total_run_s", "s"),
}

// perLayer is the whole per-layer catalogue in reporting order.
func perLayer() []layerDef {
	var out []layerDef
	for _, d := range counterDefs {
		out = append(out, d.layerDef)
	}
	out = append(out, tracedDefs()...)
	for _, p := range probes {
		out = append(out, p.defs...)
	}
	return append(out, harnessDefs...)
}

// spec renders the catalogue as BENCHMARK.json.
func spec() report.Spec {
	s := report.Spec{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: 10,
		EndToEnd:   endToEnd,
	}
	for _, d := range workloadDefs {
		s.Workloads = append(s.Workloads, report.WorkloadSpec{Name: d.name, Why: d.why})
	}
	for _, d := range perLayer() {
		s.PerLayer = append(s.PerLayer, d.LayerMetric)
	}
	return s
}
