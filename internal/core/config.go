// Package core implements the Fluke kernel: the atomic system-call API of
// the paper on top of both kernel execution models.
//
// A single set of system-call handlers — written in the paper's Figure-4
// "atomic API" style, where user registers are rolled forward to record
// partial progress and kernel-internal result codes signal blocking — runs
// under either execution model:
//
//   - the interrupt model, with one kernel stack per (virtual) CPU: a
//     handler that must wait simply unwinds, and the thread's explicit
//     user register state is its continuation;
//   - the process model, with one kernel stack per thread: a handler that
//     must wait parks in place on the thread's own kernel-stack context
//     and continues where it slept.
//
// The model is chosen by Config.Model, mirroring the paper's compile-time
// configuration option, and the difference is confined to the entry/exit
// and context-switch code (paper §3.1).
package core

import (
	"fmt"

	"repro/internal/sched"
)

// ExecModel selects the kernel's internal execution model (paper §3).
type ExecModel uint8

const (
	// ModelProcess gives each thread its own kernel stack.
	ModelProcess ExecModel = iota
	// ModelInterrupt uses one kernel stack per processor.
	ModelInterrupt
)

func (m ExecModel) String() string {
	switch m {
	case ModelProcess:
		return "process"
	case ModelInterrupt:
		return "interrupt"
	}
	return "model?"
}

// Preemption selects the kernel preemptibility configuration (paper
// Table 4).
type Preemption uint8

const (
	// PreemptNone: no kernel preemption; the kernel is preemptible only
	// on return to user mode. Comparable to a uniprocessor Unix system.
	PreemptNone Preemption = iota
	// PreemptPartial: a single explicit preemption point on the IPC
	// data copy path, checked after every 8 KB of data transferred.
	PreemptPartial
	// PreemptFull: the kernel is preemptible at any cycle-charge point.
	// Requires blocking kernel locks, and therefore the process model.
	PreemptFull
)

func (p Preemption) String() string {
	switch p {
	case PreemptNone:
		return "NP"
	case PreemptPartial:
		return "PP"
	case PreemptFull:
		return "FP"
	}
	return "preempt?"
}

// LockModel selects the kernel's locking discipline on multiprocessor
// configurations (NumCPUs > 1). With one CPU the two models are
// observationally identical — no lock is ever contended — which the
// multi-CPU equivalence tests pin bit-exactly.
type LockModel uint8

const (
	// LockBig is a single big kernel lock acquired at kernel entry
	// (syscall, fault, scheduler) and held for the whole kernel episode:
	// kernel execution is serialized across CPUs.
	LockBig LockModel = iota
	// LockFine uses separate scheduler, object-space, and MMU locks, held
	// only around the matching subsystem's work (the IPC bulk copy runs
	// with the object-space lock released), and splits them into
	// instances: one scheduler lock per run queue and one
	// object-space/MMU lock pair per space, so kernel episodes touching
	// disjoint CPUs and spaces never contend. Cross-queue operations
	// (steals, remote enqueues) take the target queue's lock.
	LockFine
)

func (m LockModel) String() string {
	switch m {
	case LockBig:
		return "big"
	case LockFine:
		return "fine"
	}
	return "lockmodel?"
}

// ParseLockModel maps a flag string to a LockModel.
func ParseLockModel(s string) (LockModel, error) {
	switch s {
	case "big":
		return LockBig, nil
	case "fine":
		return LockFine, nil
	}
	return 0, fmt.Errorf("core: unknown lock model %q (want big or fine)", s)
}

// MaxCPUs bounds Config.NumCPUs.
const MaxCPUs = 64

// Config describes one kernel build configuration.
type Config struct {
	Model   ExecModel
	Preempt Preemption

	// NumCPUs is the number of simulated processors; 0 selects 1. The
	// default execution stays deterministic at any count: the scheduler
	// interleaves the CPUs serially in virtual-time order (see exec.go).
	NumCPUs int

	// LockModel selects the multiprocessor locking discipline; see the
	// LockModel constants. Irrelevant (but valid) at NumCPUs == 1.
	LockModel LockModel

	// ParallelHost opts into real host parallelism: one goroutine per
	// simulated CPU, kernel sections serialized under the lock-model
	// mutexes, user instruction batches running concurrently. Requires
	// the interrupt model (one kernel stack — one goroutine — per CPU is
	// exactly the paper's interrupt-model shape). Execution is no longer
	// deterministic; virtual time becomes per-CPU and skewed.
	ParallelHost bool

	// KernelStackSize is the per-stack size in bytes charged to the
	// memory accountant: per thread in the process model, per CPU in
	// the interrupt model. The paper's Table 7 uses 4096 (default,
	// debug-capable) and 1024 ("production") for the process model.
	KernelStackSize int

	// PhysFrames bounds simulated physical memory in pages; 0 selects
	// the 64 MB default.
	PhysFrames int

	// PreemptPointBytes sets how often the IPC copy path takes its
	// explicit preemption point in the PP configurations; 0 selects the
	// paper's 8 KB. Exposed for the preemption-point-spacing ablation.
	PreemptPointBytes uint32

	// FPChunkCycles sets the preemption-check granularity of
	// fully-preemptible kernel code; 0 selects the default (2000 cycles
	// = 10 µs). Exposed for the FP-granularity ablation.
	FPChunkCycles uint64

	// ContinuationRecognition enables the §2.2 optimization Draves
	// introduced in Mach and the atomic API makes trivial: when a
	// waiter's explicit continuation is recognizable (its PC names the
	// mutex_lock entrypoint), the kernel completes the operation "by
	// mutating the thread's state without transferring control to the
	// suspended thread's context" — granting the mutex and writing the
	// result registers directly, so the thread wakes straight into user
	// code. Interrupt model only (a process-model waiter resumes inside
	// its retained kernel stack, which is precisely why Mach's in-kernel
	// continuations could not expose this to user code).
	ContinuationRecognition bool

	// Quantum is the round-robin time slice in cycles; 0 selects
	// sched.DefaultQuantum.
	Quantum uint64

	// DisableFastPath turns off the simulator fast paths (software TLB,
	// decoded-instruction cache, run-to-next-event batching, page-run
	// IPC copies) and uses the reference per-instruction interpreter
	// loop. Results are bit-identical either way — the equivalence tests
	// compare both — so this exists only for that comparison and for
	// debugging the fast paths themselves.
	DisableFastPath bool

	// DisableThreadedCode turns off the threaded-code interpreter tier:
	// the fused superinstruction blocks StepN compiles from warm decode
	// pages and runs with one budget check per block. Like
	// DisableFastPath this is a simulator-side switch — results are
	// bit-identical either way (TestThreadedCodeEquivalence pins memory,
	// Stats, and the clock across every configuration) — so it exists
	// only for that comparison, for tiered benchmarking, and for
	// debugging the block builder. DisableFastPath implies it: with the
	// decode cache off there are no pages to fuse.
	DisableThreadedCode bool

	// DisableIPCFastPath turns off the kernel's IPC fast path: the
	// direct thread handoff that, when a sender completes its peer's
	// receive, donates the rest of its time slice and switches straight
	// to the peer without a run-queue round trip, carrying short
	// messages (≤ FastMsgWords) through the register file. Unlike
	// DisableFastPath this changes *virtual* time — the fast path is a
	// modeled kernel optimization, not a simulator cache — but it never
	// changes user-visible results: TestIPCFastPathEquivalence pins
	// memory, register results, payloads, and Table 3 cause counts
	// identical with the path on and off.
	DisableIPCFastPath bool

	// DisableZeroCopy turns off the zero-copy bulk-transfer path: the
	// copy-on-write frame sharing that moves page-aligned IPC runs of at
	// least ZeroCopyMinPages pages by aliasing the sender's frames into
	// the receiver's region (charged per page, not per word). Like
	// DisableIPCFastPath this changes virtual time — it is a modeled
	// kernel optimization — but never user-visible results:
	// TestZeroCopyEquivalence pins memory contents and Table 3 cause
	// counts identical with the path on and off.
	DisableZeroCopy bool

	// DisableNICCoalesce turns off the simulated NIC's interrupt
	// coalescing (NAPI-style polling): instead of one interrupt waking
	// the driver to drain the RX ring until empty before re-arming, the
	// NIC delivers one frame per interrupt/acknowledge cycle — the
	// pre-coalescing cost model. Like DisableIPCFastPath this changes
	// virtual time — coalescing is a modeled device optimization — but
	// never user-visible results: TestNICCoalesceEquivalence pins client
	// memory identical with it on and off, and the off configuration
	// bit-identical (memory, Stats, clock) run to run. The kernel core
	// never reads this field; internal/dev latches it at attach time.
	DisableNICCoalesce bool

	// TLBSize is the software-TLB capacity per address space, rounded up
	// to a power of two; 0 selects mmu.DefaultTLBSize (256). Purely a
	// simulator cache: the capacity changes wall-clock cost only, never
	// virtual time.
	TLBSize int

	// EnableProfiler attaches the cycle-accurate virtual-time profiler
	// (internal/profile): every charged cycle is attributed to a
	// (kernel path, syscall, guest PC-bucket) triple in per-CPU
	// allocation-free shards. Like the metrics layer it never charges
	// cycles — virtual time, user memory, and Stats are bit-identical
	// with it on or off (TestProfilerEquivalence) — and the attributed
	// total equals Stats.TotalCycles exactly.
	EnableProfiler bool

	// EnableIPCSpans mints a request-scoped causal trace ID at IPC send
	// and propagates it through rendezvous, direct handoff, donation
	// steals, and zero-copy transfers, emitting trace.Flow events into
	// the attached Tracer (exported as Perfetto flow events; consumed by
	// the flukebench -critpath analyzer). Free when no Tracer is
	// attached beyond a per-thread ID word; never charges cycles.
	EnableIPCSpans bool

	// TraceSyscalls, when set, receives one line per syscall completion
	// (debugging aid).
	TraceSyscalls func(line string)
}

// Name returns the paper's label for this configuration, e.g.
// "Process NP" or "Interrupt PP".
func (c Config) Name() string {
	model := "Process"
	if c.Model == ModelInterrupt {
		model = "Interrupt"
	}
	return model + " " + c.Preempt.String()
}

// Validate checks model/preemption compatibility: "full kernel
// preemptibility requires the ability to block within the kernel and is
// therefore incompatible with the interrupt model" (paper §5.3), giving
// the paper's five valid configurations.
func (c Config) Validate() error {
	if c.Model == ModelInterrupt && c.Preempt == PreemptFull {
		return fmt.Errorf("core: full preemption is incompatible with the interrupt model")
	}
	if c.KernelStackSize < 0 {
		return fmt.Errorf("core: negative kernel stack size")
	}
	if c.NumCPUs < 0 || c.NumCPUs > MaxCPUs {
		return fmt.Errorf("core: NumCPUs %d out of range [0,%d]", c.NumCPUs, MaxCPUs)
	}
	if c.LockModel != LockBig && c.LockModel != LockFine {
		return fmt.Errorf("core: unknown lock model %d", c.LockModel)
	}
	if c.ParallelHost && c.Model != ModelInterrupt {
		return fmt.Errorf("core: ParallelHost requires the interrupt model (one kernel stack per CPU)")
	}
	if c.TLBSize < 0 {
		return fmt.Errorf("core: negative TLBSize")
	}
	return nil
}

func (c Config) withDefaults() Config {
	if c.NumCPUs == 0 {
		c.NumCPUs = 1
	}
	if c.KernelStackSize == 0 {
		c.KernelStackSize = DefaultKernelStackSize
	}
	if c.Quantum == 0 {
		c.Quantum = sched.DefaultQuantum
	}
	if c.PreemptPointBytes == 0 {
		c.PreemptPointBytes = PreemptPointBytes
	}
	if c.FPChunkCycles == 0 {
		c.FPChunkCycles = fpChunk
	}
	return c
}

// DefaultKernelStackSize is the default per-thread kernel stack size for
// the process model (paper Table 7's debug-capable configuration).
const DefaultKernelStackSize = 4096

// ProductionKernelStackSize is the reduced stack size of the paper's
// "production" kernel configuration (Table 7).
const ProductionKernelStackSize = 1024

// InterruptModelTCBOverhead is the extra per-thread bytes beyond the bare
// TCB that the interrupt model charges (none — the whole point).
const InterruptModelTCBOverhead = 0

// Configurations returns the paper's five kernel configurations in
// Table 4/5/6 order: Process NP, Process PP, Process FP, Interrupt NP,
// Interrupt PP.
func Configurations() []Config {
	return []Config{
		{Model: ModelProcess, Preempt: PreemptNone},
		{Model: ModelProcess, Preempt: PreemptPartial},
		{Model: ModelProcess, Preempt: PreemptFull},
		{Model: ModelInterrupt, Preempt: PreemptNone},
		{Model: ModelInterrupt, Preempt: PreemptPartial},
	}
}
