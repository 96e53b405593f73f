package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/dev"
	"repro/internal/mmu"
	"repro/internal/profile"
	"repro/internal/trace"
)

// runMode says how a repetition is run.
type runMode int

const (
	// modeE2E is the end-to-end pass: tracing off, the workload driven
	// through the entry point its definition names.
	modeE2E runMode = iota
	// modePlain is the per-layer pass's untraced repetition: the same
	// system as modeTraced with every observer off, so the two differ
	// only by the observers.
	modePlain
	// modeTraced turns on the profiler, the metrics registry and the
	// trace ring.
	modeTraced
)

// traceRingEvents is the traced pass's ring capacity. The ring keeps the
// newest events; what it overwrote is reported as trace.ring_dropped.
const traceRingEvents = 1 << 14

// counters are the per-layer counts read from a kernel after a run. All
// fields are plain integers so that virt stays comparable.
type counters struct {
	userCycles, idleCycles                uint64
	syscalls, restarts                    uint64
	preemptsUser, preemptsPoint           uint64
	timerIRQs, ctxSwitches                uint64
	handoffs, steals, ipis                uint64
	fastpathMisses, fastpathFallbacks     uint64
	zcShares, zcFallbacks, cowBreaks      uint64
	faultsSoft, faultsHard, faultsCOW     uint64
	faultRemedy, faultRollback            uint64
	exec                                  cpu.ExecStats
	framesPeak                            uint64
	lockAcquires, lockContended, lockWait uint64
	nic                                   dev.NICCounters
	ckptBaseline, ckptResidual            uint64
	ckptRounds                            uint64
	ckptDowntime, ckptStopCopy            uint64
}

// addKernel folds one kernel's counters in (migrate_precopy runs two
// kernels per migration, so counters add up over kernels).
func (c *counters) addKernel(k *core.Kernel, st *core.Stats) {
	c.userCycles += st.UserCycles
	c.idleCycles += st.IdleCycles
	c.syscalls += st.Syscalls
	c.restarts += st.Restarts
	c.preemptsUser += st.PreemptsUser
	c.preemptsPoint += st.PreemptsPoint
	c.timerIRQs += st.TimerIRQs
	c.ctxSwitches += st.ContextSwitches
	c.handoffs += st.FastpathHits
	c.steals += st.Steals
	c.ipis += st.IPIs
	c.fastpathMisses += st.FastpathMisses
	c.fastpathFallbacks += st.FastpathFallbacks
	c.zcShares += st.ZeroCopyShares
	c.zcFallbacks += st.ZeroCopyFallbacks
	c.cowBreaks += st.ZeroCopyCOWBreaks
	for key, n := range st.FaultCount {
		switch key.Class {
		case mmu.FaultSoft:
			c.faultsSoft += n
		case mmu.FaultHard:
			c.faultsHard += n
		case mmu.FaultCOW:
			c.faultsCOW += n
		}
	}
	for _, n := range st.FaultRemedy {
		c.faultRemedy += n
	}
	for _, n := range st.FaultRollback {
		c.faultRollback += n
	}
	es := k.ExecStats()
	c.exec.Add(&es)
	c.framesPeak = max(c.framesPeak, uint64(k.Alloc.Peak()))
	for _, ls := range k.LockStats() {
		c.lockAcquires += ls.Acquires
		c.lockContended += ls.Contended
		c.lockWait += ls.WaitCycles
	}
}

// virt is every virtual-clock number one repetition yields. It is a
// comparable value on purpose: the simulator is deterministic, so all
// repetitions of one seed must produce equal virts, traced or not, and
// the harness counts a repetition that does not as failed.
type virt struct {
	ops          uint64  // guest operations attempted
	failed       uint64  // operations whose guest-visible result was wrong or missing
	cycles       uint64  // elapsed virtual cycles (the frontier)
	kernelCycles uint64  // Stats().KernelCycles summed over CPUs
	totalCycles  uint64  // Stats().TotalCycles(), what the profiler must sum to
	latMean      float64 // mean latency in virtual µs; what is timed depends on the workload
	latP99       float64
	latN         int
	c            counters
}

// repResult is what a workload's repetition hands back to the harness.
type repResult struct {
	v        virt
	failures []string // one line per kind of failure seen
	// Traced pass only.
	prof        [profile.NumPaths]uint64
	profTotal   uint64
	ringDropped uint64
}

func (r *repResult) failf(ops uint64, format string, args ...any) {
	r.v.failed += ops
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

// repCtx is the harness side of one repetition: the workload builds its
// system through it (so the traced pass can attach observers and spans
// see every layer call) and wraps the part to be measured in timed.
type repCtx struct {
	mode     runMode
	sp       *spanRec
	res      *repResult
	rings    []*trace.Ring
	profiled []*core.Kernel // kernels with a profiler attached

	timedCPU  float64 // host CPU ns inside timed regions
	timedWall float64
	alloc     uint64 // bytes allocated inside timed regions
}

// newKernel is core.New with the traced pass's observers attached.
func (c *repCtx) newKernel(cfg core.Config) *core.Kernel {
	cfg.EnableProfiler = c.mode == modeTraced
	var k *core.Kernel
	c.sp.do("core.New", func() { k = core.New(cfg) })
	if c.mode == modeTraced {
		k.EnableMetrics()
		ring := trace.NewRing(traceRingEvents)
		k.Tracer = ring
		c.rings = append(c.rings, ring)
		c.profiled = append(c.profiled, k)
	}
	return k
}

// harvest reads a finished kernel's counters into the result.
func (c *repCtx) harvest(k *core.Kernel) {
	c.sp.do("core.Stats", func() {
		st := k.Stats()
		c.res.v.c.addKernel(k, &st)
		c.res.v.kernelCycles += st.KernelCycles
		c.res.v.totalCycles += st.TotalCycles()
	})
}

// timed measures fn: host CPU time, wall time and bytes allocated. The
// collection before it keeps set-up garbage from being collected on the
// measured side of the line.
func (c *repCtx) timed(name string, fn func()) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0, t0 := cpuNS(), time.Now()
	c.sp.do(name, fn)
	c.timedCPU += cpuNS() - cpu0
	c.timedWall += float64(time.Since(t0).Nanoseconds())
	runtime.ReadMemStats(&m1)
	c.alloc += m1.TotalAlloc - m0.TotalAlloc
}

// finish folds the traced observers' totals into the result.
func (c *repCtx) finish() {
	for _, k := range c.profiled {
		snap := k.ProfileSnapshot()
		for _, s := range snap.Samples {
			c.res.prof[s.Path] += s.Cycles
		}
		c.res.profTotal += snap.TotalCycles()
	}
	for _, r := range c.rings {
		c.res.ringDropped += r.Dropped()
	}
}

// sample is one measured repetition.
type sample struct {
	mode    runMode
	calNS   float64 // calibrated host CPU ns inside timed regions
	rawNS   float64 // uncalibrated wall ns inside timed regions
	setupS  float64 // calibrated host CPU seconds outside timed regions
	alloc   uint64
	calibNS float64 // mean of the two adjacent calibration loops
	res     repResult
}

// repTimeout bounds one repetition's host time. A healthy repetition
// takes under a second; the virtual-cycle budget inside every workload
// turns most wedges into failed operations long before this fires.
const repTimeout = 90 * time.Second

// harness runs repetitions and owns everything measured in one process.
type harness struct {
	sp     *spanRec
	calibs []float64
	// wedged, when set, is called from the watchdog timer's goroutine if a
	// repetition overruns repTimeout; it must not return.
	wedged func(workload string)
}

// one runs a single repetition of w in the given mode.
func (h *harness) one(w instance, mode runMode, rep int) (*repCtx, float64) {
	sp := h.sp
	if mode == modeE2E {
		sp = nil
	}
	sp.scope(w.def.name, rep)
	watchdog := time.AfterFunc(repTimeout, func() { h.wedged(w.def.name) })
	defer watchdog.Stop()
	c := &repCtx{mode: mode, sp: sp, res: &repResult{}}
	cpu0 := cpuNS()
	sp.do(fmt.Sprintf("rep.%s", modeNames[mode]), func() {
		w.rep(c)
		c.finish()
	})
	return c, cpuNS() - cpu0
}

var modeNames = [...]string{"e2e", "plain", "traced"}

// measure runs one discarded warm-up repetition and then repetitions
// cycling through modes until stop says so, each bracketed by the
// calibration loop. Every repetition's virtual numbers are checked against
// the warm-up's.
func (h *harness) measure(w instance, modes []runMode, stop func(done int) bool) []sample {
	warm, _ := h.one(w, modes[0], 0)
	ref := warm.res.v
	var out []sample
	c0 := calibrate()
	for i := 0; !stop(i); i++ {
		mode := modes[i%len(modes)]
		c, repCPU := h.one(w, mode, i+1)
		c1 := calibrate()
		calib := (c0 + c1) / 2
		h.calibs = append(h.calibs, c1)
		c0 = c1
		if c.res.v != ref {
			c.res.failf(c.res.v.ops-min(c.res.v.failed, c.res.v.ops),
				"virtual numbers differ between repetitions of one run")
		}
		out = append(out, sample{
			mode:    mode,
			calNS:   c.timedCPU * calibRefNS / calib,
			rawNS:   c.timedWall,
			setupS:  (repCPU - c.timedCPU) * calibRefNS / calib / 1e9,
			alloc:   c.alloc,
			calibNS: calib,
			res:     *c.res,
		})
	}
	return out
}

// Order statistics over small sample sets.

func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// quantile is the linearly interpolated q-quantile (0..1) of v.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := sorted(v)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(v []float64) float64 { return quantile(v, 0.5) }

// iqrPct is the distance between the quartiles as a percentage of the
// median — the spread figure the README quotes.
func iqrPct(v []float64) float64 {
	m := median(v)
	if len(v) < 2 || m == 0 {
		return 0
	}
	return 100 * (quantile(v, 0.75) - quantile(v, 0.25)) / m
}
