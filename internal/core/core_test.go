package core_test

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/mem"
	"repro/internal/mmu"
	"repro/internal/obj"
	"repro/internal/prog"
	"repro/internal/sys"
)

const (
	codeBase = 0x0001_0000
	dataBase = 0x0004_0000
	dataSize = 16 * mem.PageSize
)

// allConfigs are the paper's five kernel configurations.
func allConfigs() []core.Config { return core.Configurations() }

// env is a one-space test environment.
type env struct {
	k *core.Kernel
	s *obj.Space
}

func newEnv(t *testing.T, cfg core.Config) *env {
	t.Helper()
	k := core.New(cfg)
	s := k.NewSpace()
	// A demand-zero data window for guest handles and buffers.
	r, err := k.NewBoundRegion(s, kernelDataHandle(), dataSize, true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := k.MapInto(s, r, dataBase, 0, dataSize, mmu.PermRW); err != nil {
		t.Fatal(err)
	}
	return &env{k: k, s: s}
}

var dataHandleCounter uint32

// kernelDataHandle hands out distinct handle slots in the reserved window
// for the data regions themselves.
func kernelDataHandle() uint32 {
	dataHandleCounter += 4
	return core.KObjBase + 0x800 + dataHandleCounter
}

// spawn loads the program and starts a thread at its base.
func (e *env) spawn(t *testing.T, b *prog.Builder, prio int) *obj.Thread {
	t.Helper()
	th, err := e.k.SpawnProgram(e.s, b.Base(), b.MustAssemble(), prio)
	if err != nil {
		t.Fatal(err)
	}
	return th
}

// spawnAt creates a thread entering at an arbitrary address of an
// already-loaded image.
func (e *env) spawnAt(pc uint32, prio int) *obj.Thread {
	th := e.k.NewThread(e.s, prio)
	th.Regs.PC = pc
	e.k.StartThread(th)
	return th
}

// word reads a 32-bit little-endian guest word.
func (e *env) word(t *testing.T, va uint32) uint32 {
	t.Helper()
	b, err := e.k.ReadMem(e.s, va, 4)
	if err != nil {
		t.Fatal(err)
	}
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

// run runs the kernel with a generous budget and checks the given threads
// exited.
func (e *env) run(t *testing.T, budget uint64, threads ...*obj.Thread) {
	t.Helper()
	e.k.RunFor(budget)
	for _, th := range threads {
		if !th.Exited {
			t.Fatalf("thread %d did not exit (state=%v waitq=%v pc=%#x r0=%d)",
				th.ID, th.State, th.WaitQ != nil, th.Regs.PC, th.Regs.R[0])
		}
	}
}

// forEachConfig runs the subtest under all five configurations.
func forEachConfig(t *testing.T, fn func(t *testing.T, cfg core.Config)) {
	for _, cfg := range allConfigs() {
		cfg := cfg
		t.Run(cfg.Name(), func(t *testing.T) { fn(t, cfg) })
	}
}

// ---------------------------------------------------------------------------

func TestConfigValidation(t *testing.T) {
	bad := core.Config{Model: core.ModelInterrupt, Preempt: core.PreemptFull}
	if err := bad.Validate(); err == nil {
		t.Fatal("interrupt+full preemption accepted")
	}
	if len(core.Configurations()) != 5 {
		t.Fatal("expected the paper's five configurations")
	}
	names := map[string]bool{}
	for _, c := range core.Configurations() {
		if err := c.Validate(); err != nil {
			t.Fatal(err)
		}
		names[c.Name()] = true
	}
	for _, want := range []string{"Process NP", "Process PP", "Process FP", "Interrupt NP", "Interrupt PP"} {
		if !names[want] {
			t.Fatalf("missing configuration %q", want)
		}
	}
}

func TestTrivialSyscalls(t *testing.T) {
	forEachConfig(t, func(t *testing.T, cfg core.Config) {
		e := newEnv(t, cfg)
		b := prog.New(codeBase)
		// api_version -> [data+0], thread_self id -> [data+4],
		// priority -> [data+8], null errno -> [data+12].
		b.Syscall(sys.NAPIVersion).
			Movi(6, dataBase).St(6, 0, 1).
			ThreadSelf().
			Movi(6, dataBase).St(6, 4, 2).
			Syscall(sys.NThreadPrioritySelf).
			Movi(6, dataBase).St(6, 8, 1).
			Null().
			Movi(6, dataBase).St(6, 12, 0).
			Halt()
		th := e.spawn(t, b, 10)
		e.run(t, 50_000_000, th)
		if got := e.word(t, dataBase); got != sys.APIVersionValue {
			t.Errorf("api_version = %#x", got)
		}
		if got := e.word(t, dataBase+4); got != th.ID {
			t.Errorf("thread_self id = %d, want %d", got, th.ID)
		}
		if got := e.word(t, dataBase+8); got != 10 {
			t.Errorf("priority = %d", got)
		}
		if got := e.word(t, dataBase+12); got != uint32(sys.EOK) {
			t.Errorf("null errno = %d", got)
		}
	})
}

func TestObjectCreateDestroy(t *testing.T) {
	e := newEnv(t, core.Config{Model: core.ModelProcess})
	const mtx = dataBase + 0x100
	b := prog.New(codeBase)
	b.MutexCreate(mtx).
		Movi(6, dataBase).St(6, 0, 0). // create errno
		MutexTrylock(mtx).
		Movi(6, dataBase).St(6, 4, 0). // trylock errno (EOK)
		MutexTrylock(mtx).
		Movi(6, dataBase).St(6, 8, 0). // second trylock (EWOULDBLOCK)
		MutexUnlock(mtx).
		Destroy(sys.ObjMutex, mtx).
		Movi(6, dataBase).St(6, 12, 0). // destroy errno
		MutexTrylock(mtx).
		Movi(6, dataBase).St(6, 16, 0). // after destroy (ESRCH)
		Halt()
	th := e.spawn(t, b, 10)
	e.run(t, 50_000_000, th)
	for i, want := range []sys.Errno{sys.EOK, sys.EOK, sys.EWOULDBLOCK, sys.EOK, sys.ESRCH} {
		if got := e.word(t, dataBase+uint32(i)*4); got != uint32(want) {
			t.Errorf("step %d errno = %v, want %v", i, sys.Errno(got), want)
		}
	}
}

// mutexCounterProgram builds the classic two-thread counter-under-mutex
// program; thread 2 enters at label "t2".
func mutexCounterProgram(n uint32) *prog.Builder {
	const (
		mtx = dataBase + 0x100
		ctr = dataBase + 0x200
	)
	b := prog.New(codeBase)
	body := func(entry, done string) {
		b.Label(entry).
			Movi(6, 0).
			Label(entry+".loop").
			Movi(5, n)
		b.Beq(6, 5, done)
		b.MutexLock(mtx).
			Movi(4, ctr).Ld(5, 4, 0).Addi(5, 5, 1).St(4, 0, 5).
			MutexUnlock(mtx).
			Addi(6, 6, 1).
			Jmp(entry + ".loop")
	}
	b.MutexCreate(mtx).Jmp("t1")
	body("t1", "t1.done")
	b.Label("t1.done").Halt()
	body("t2", "t2.done")
	b.Label("t2.done").Halt()
	return b
}

func TestMutexContention(t *testing.T) {
	forEachConfig(t, func(t *testing.T, cfg core.Config) {
		e := newEnv(t, cfg)
		const n = 50
		b := mutexCounterProgram(n)
		t1 := e.spawn(t, b, 10)
		t2 := e.spawnAt(b.Addr("t2"), 10)
		e.run(t, 200_000_000, t1, t2)
		if got := e.word(t, dataBase+0x200); got != 2*n {
			t.Fatalf("counter = %d, want %d", got, 2*n)
		}
	})
}

func TestCondWaitSignal(t *testing.T) {
	forEachConfig(t, func(t *testing.T, cfg core.Config) {
		e := newEnv(t, cfg)
		const (
			mtx  = dataBase + 0x100
			cnd  = dataBase + 0x104
			flag = dataBase + 0x200
		)
		b := prog.New(codeBase)
		// Waiter: lock; while flag==0 cond_wait; unlock; halt.
		b.MutexCreate(mtx).CondCreate(cnd).
			MutexLock(mtx).
			Label("check").
			Movi(4, flag).Ld(5, 4, 0).
			Movi(6, 0)
		b.Bne(5, 6, "got")
		b.CondWait(cnd, mtx).
			Jmp("check").
			Label("got").
			MutexUnlock(mtx).
			Halt()
		// Signaler: sleep a bit; lock; flag=1; signal; unlock; halt.
		b.Label("t2").
			ThreadSleepUS(500).
			MutexLock(mtx).
			Movi(4, flag).Movi(5, 1).St(4, 0, 5).
			CondSignal(cnd).
			MutexUnlock(mtx).
			Halt()
		t1 := e.spawn(t, b, 10)
		t2 := e.spawnAt(b.Addr("t2"), 10)
		e.run(t, 400_000_000, t1, t2)
	})
}

// TestCondWaitExportsMutexLockContinuation pins the paper's flagship §4.3
// mechanism: a thread blocked in cond_wait has its user PC re-pointed at
// the mutex_lock entrypoint with the mutex handle in R1, so its exported
// state is a clean restart point.
func TestCondWaitExportsMutexLockContinuation(t *testing.T) {
	forEachConfig(t, func(t *testing.T, cfg core.Config) {
		e := newEnv(t, cfg)
		const (
			mtx = dataBase + 0x100
			cnd = dataBase + 0x104
		)
		b := prog.New(codeBase)
		b.MutexCreate(mtx).CondCreate(cnd).
			MutexLock(mtx).
			CondWait(cnd, mtx).
			Halt()
		th := e.spawn(t, b, 10)
		e.k.RunFor(10_000_000) // waiter blocks; system goes idle
		if th.State != obj.ThBlocked {
			t.Fatalf("thread state %v, want blocked in cond_wait", th.State)
		}
		if th.Regs.PC != cpu.SyscallEntry(sys.NMutexLock) {
			t.Fatalf("blocked PC = %#x, want mutex_lock entry %#x",
				th.Regs.PC, cpu.SyscallEntry(sys.NMutexLock))
		}
		if th.Regs.R[1] != mtx {
			t.Fatalf("blocked R1 = %#x, want mutex handle %#x", th.Regs.R[1], mtx)
		}
	})
}

func TestThreadSleepAdvancesVirtualTime(t *testing.T) {
	forEachConfig(t, func(t *testing.T, cfg core.Config) {
		e := newEnv(t, cfg)
		b := prog.New(codeBase)
		b.ThreadSleepUS(10_000). // 10 ms
						ClockGet().
						Movi(6, dataBase).St(6, 0, 1).
						Halt()
		th := e.spawn(t, b, 10)
		e.run(t, 100_000_000, th)
		us := e.word(t, dataBase)
		if us < 10_000 {
			t.Fatalf("clock after sleep = %d µs, want >= 10000", us)
		}
		if us > 20_000 {
			t.Fatalf("clock after sleep = %d µs, way past deadline", us)
		}
	})
}

func TestInterruptDeliversEINTR(t *testing.T) {
	forEachConfig(t, func(t *testing.T, cfg core.Config) {
		e := newEnv(t, cfg)
		const mtx = dataBase + 0x100
		b := prog.New(codeBase)
		// t1: create+lock mutex; then lock again (blocks forever) and
		// record the errno it eventually gets.
		b.MutexCreate(mtx).
			MutexLock(mtx).
			MutexLock(mtx).
			Movi(6, dataBase).St(6, 0, 0).
			Halt()
		t1 := e.spawn(t, b, 10)
		e.k.RunFor(5_000_000)
		if t1.State != obj.ThBlocked {
			t.Fatalf("t1 not blocked: %v", t1.State)
		}
		// Host-side interrupt via a kernel thread calling the syscall
		// machinery indirectly: use the public thread object + a second
		// guest thread that interrupts t1 via its handle. Interrupting
		// needs t1's handle: the kernel window handle is host-known.
		t1Handle := t1.VA
		b2 := prog.New(codeBase + 0x4000)
		b2.Movi(1, t1Handle).Syscall(sys.NThreadInterrupt).Halt()
		img2 := b2.MustAssemble()
		if _, err := e.k.LoadImage(e.s, b2.Base(), img2); err != nil {
			t.Fatal(err)
		}
		t2 := e.spawnAt(b2.Base(), 10)
		e.run(t, 100_000_000, t1, t2)
		if got := e.word(t, dataBase); got != uint32(sys.EINTR) {
			t.Fatalf("blocked lock errno = %v, want EINTR", sys.Errno(got))
		}
		if e.k.Stats().Interrupts == 0 {
			t.Fatal("no interrupt recorded")
		}
	})
}

func TestSchedYieldRoundRobin(t *testing.T) {
	forEachConfig(t, func(t *testing.T, cfg core.Config) {
		e := newEnv(t, cfg)
		// Two threads alternately append their IDs via yields; both
		// finish.
		b := prog.New(codeBase)
		b.Label("t1").SchedYield().SchedYield().SchedYield().Halt()
		t1 := e.spawn(t, b, 10)
		t2 := e.spawnAt(b.Addr("t1"), 10)
		e.run(t, 50_000_000, t1, t2)
	})
}

func TestPriorityPreemptsOnWake(t *testing.T) {
	forEachConfig(t, func(t *testing.T, cfg core.Config) {
		e := newEnv(t, cfg)
		// Low-priority spinner; high-priority sleeper that records the
		// clock when it wakes. The wake must preempt the spinner
		// promptly (user-mode preemption).
		spin := prog.New(codeBase)
		spin.Movi(6, 0).
			Label("spin").
			Addi(6, 6, 1).
			Movi(5, 2_000_000).
			Blt(6, 5, "spin").
			Halt()
		hi := prog.New(codeBase + 0x8000)
		hi.ThreadSleepUS(1000).
			ClockGet().
			Movi(6, dataBase).St(6, 0, 1).
			Halt()
		tSpin := e.spawn(t, spin, 5)
		img := hi.MustAssemble()
		if _, err := e.k.LoadImage(e.s, hi.Base(), img); err != nil {
			t.Fatal(err)
		}
		tHi := e.spawnAt(hi.Base(), 20)
		e.run(t, 400_000_000, tHi)
		_ = tSpin
		wake := e.word(t, dataBase)
		if wake < 1000 || wake > 1200 {
			t.Fatalf("high-priority thread woke at %d µs, want ~1000 (prompt preemption)", wake)
		}
	})
}

func TestSoftFaultRestartsShortSyscall(t *testing.T) {
	forEachConfig(t, func(t *testing.T, cfg core.Config) {
		e := newEnv(t, cfg)
		// The mutex handle lives in a demand-zero page never touched
		// before: mutex_create must fault on the handle page, restart,
		// and succeed (paper §4.3's port_reference example).
		const mtx = dataBase + 8*mem.PageSize
		b := prog.New(codeBase)
		b.MutexCreate(mtx).
			MutexTrylock(mtx).
			Movi(6, dataBase).St(6, 0, 0).
			Halt()
		th := e.spawn(t, b, 10)
		e.run(t, 50_000_000, th)
		if got := e.word(t, dataBase); got != uint32(sys.EOK) {
			t.Fatalf("trylock after faulting create = %v", sys.Errno(got))
		}
		soft := e.k.Stats().FaultCount[core.FaultKey{Class: mmu.FaultSoft, Side: core.FaultSame}]
		if soft == 0 {
			t.Fatal("no soft fault recorded")
		}
		if e.k.Stats().Restarts == 0 {
			t.Fatal("no syscall restart recorded")
		}
	})
}

// TestRegionSearchFindsHandle checks that region_search returns the lowest
// handle in its range, whatever order the handles were bound in and
// however many chunk stages the search crosses first.
func TestRegionSearchFindsHandle(t *testing.T) {
	descending := []uint32{dataBase + 0x300, dataBase + 0x200, dataBase + 0x100}
	for _, tc := range []struct {
		name          string
		mutexes       []uint32 // created in this order
		start, length uint32
		want          uint32 // the handle found, or 0 for ENOTFOUND
	}{
		{"one handle", []uint32{dataBase + 0x300}, dataBase, dataSize, dataBase + 0x300},
		{"lowest of handles bound in descending order", descending, dataBase, dataSize, dataBase + 0x100},
		{"start between two handles", descending, dataBase + 0x104, dataSize - 0x104, dataBase + 0x200},
		{"start on a handle", descending, dataBase + 0x200, dataSize - 0x200, dataBase + 0x200},
		{"range ends just below a handle", descending, dataBase + 0x104, 0xFC, 0},
		{"no handle above the last", descending, dataBase + 0x304, dataSize - 0x304, 0},
		// The next handles up are in the kernel window, about a thousand
		// stages on; the space's self handle at its base is the lowest.
		{"lowest match past the first stage", descending, dataBase + 0x304, 1<<32 - (dataBase + 0x304), core.KObjBase},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := newEnv(t, core.Config{Model: core.ModelInterrupt})
			b := prog.New(codeBase)
			for _, va := range tc.mutexes {
				b.MutexCreate(va)
			}
			b.RegionSearch(tc.start, tc.length).
				Movi(6, dataBase).St(6, 0, 0). // errno
				St(6, 4, 1).                   // found VA
				Halt()
			th := e.spawn(t, b, 10)
			e.run(t, 1_000_000_000, th)
			errno, got := sys.Errno(e.word(t, dataBase)), e.word(t, dataBase+4)
			switch {
			case tc.want == 0 && errno != sys.ENOTFOUND:
				t.Fatalf("region_search = %v (R1 %#x), want ENOTFOUND", errno, got)
			case tc.want != 0 && (errno != sys.EOK || got != tc.want):
				t.Fatalf("region_search = %v, found %#x, want %#x", errno, got, tc.want)
			}
		})
	}
}

func TestThreadWaitJoin(t *testing.T) {
	forEachConfig(t, func(t *testing.T, cfg core.Config) {
		e := newEnv(t, cfg)
		b := prog.New(codeBase)
		// Child: exits with code 42 (halt takes R1 as exit code).
		b.Label("child").ThreadSleepUS(200).Movi(1, 42).Halt()
		// Parent entry placed after child.
		b.Label("parent").
			Movi(1, 0). // patched below with child handle
			Label("patch").
			Syscall(sys.NThreadWait).
			Movi(6, dataBase).St(6, 0, 1). // exit code
			Movi(6, dataBase).St(6, 4, 0). // errno
			Halt()
		img := b.MustAssemble()
		if _, err := e.k.LoadImage(e.s, codeBase, img); err != nil {
			t.Fatal(err)
		}
		child := e.spawnAt(b.Addr("child"), 10)
		// Patch the parent's movi with the child's kernel-window handle.
		parent := e.spawnAt(b.Addr("parent"), 10)
		patch := b.Addr("patch") - 4 // imm word of the movi before the label
		if err := e.k.WriteMem(e.s, patch, []byte{
			byte(child.VA), byte(child.VA >> 8), byte(child.VA >> 16), byte(child.VA >> 24)}); err != nil {
			t.Fatal(err)
		}
		e.run(t, 100_000_000, child, parent)
		if got := e.word(t, dataBase); got != 42 {
			t.Fatalf("join exit code = %d, want 42", got)
		}
		if got := e.word(t, dataBase+4); got != uint32(sys.EOK) {
			t.Fatalf("join errno = %v", sys.Errno(got))
		}
	})
}

func TestMemOverheadTable7Shape(t *testing.T) {
	// Interrupt model: per-thread cost is the TCB only. Process model:
	// TCB + stack. The paper's Fluke row: interrupt 300 B, process
	// 1024/4096 B stacks.
	ik := core.New(core.Config{Model: core.ModelInterrupt})
	pk := core.New(core.Config{Model: core.ModelProcess})
	itcb, istack, itotal := ik.MemOverhead()
	_, pstack, ptotal := pk.MemOverhead()
	if istack != 0 {
		t.Fatalf("interrupt model charges per-thread stack %d", istack)
	}
	if pstack != core.DefaultKernelStackSize {
		t.Fatalf("process stack = %d", pstack)
	}
	if ptotal <= itotal {
		t.Fatal("process model should cost more per thread")
	}
	if itcb <= 0 || itcb > 1024 {
		t.Fatalf("TCB size %d out of plausible range", itcb)
	}
	// Production configuration.
	pk2 := core.New(core.Config{Model: core.ModelProcess, KernelStackSize: core.ProductionKernelStackSize})
	_, s2, _ := pk2.MemOverhead()
	if s2 != 1024 {
		t.Fatalf("production stack = %d", s2)
	}
}

func TestKernelStackAccounting(t *testing.T) {
	for _, cfg := range allConfigs() {
		k := core.New(cfg)
		s := k.NewSpace()
		base := k.StacksInUse()
		var ths []*obj.Thread
		for i := 0; i < 5; i++ {
			ths = append(ths, k.NewThread(s, 10))
		}
		grew := k.StacksInUse() - base
		if cfg.Model == core.ModelProcess && grew != 5 {
			t.Errorf("%s: stacks grew %d, want 5", cfg.Name(), grew)
		}
		if cfg.Model == core.ModelInterrupt && grew != 0 {
			t.Errorf("%s: stacks grew %d, want 0 (per-CPU only)", cfg.Name(), grew)
		}
		for _, th := range ths {
			k.DestroyThread(th)
		}
		if k.StacksInUse() != base {
			t.Errorf("%s: stacks leak: %d != %d", cfg.Name(), k.StacksInUse(), base)
		}
	}
}

func TestDestroyBlockedThread(t *testing.T) {
	forEachConfig(t, func(t *testing.T, cfg core.Config) {
		e := newEnv(t, cfg)
		const mtx = dataBase + 0x100
		b := prog.New(codeBase)
		b.MutexCreate(mtx).MutexLock(mtx).MutexLock(mtx).Halt()
		th := e.spawn(t, b, 10)
		e.k.RunFor(5_000_000)
		if th.State != obj.ThBlocked {
			t.Fatalf("state %v", th.State)
		}
		e.k.DestroyThread(th)
		if th.State != obj.ThDead {
			t.Fatal("thread not dead after destroy")
		}
		// The kernel remains healthy.
		e.k.RunFor(1_000_000)
	})
}

func TestGetStateOfBlockedThreadIsPromptAndConsistent(t *testing.T) {
	forEachConfig(t, func(t *testing.T, cfg core.Config) {
		e := newEnv(t, cfg)
		b := prog.New(codeBase)
		b.ThreadSleepUS(1_000_000). // sleeps ~forever
						Halt()
		th := e.spawn(t, b, 10)
		e.k.RunFor(2_000_000)
		if th.State != obj.ThBlocked {
			t.Fatalf("state %v", th.State)
		}
		// Host-side promptness check: the state must be immediately
		// consistent — PC at the thread_sleep entry (a restart point)
		// with the rolled-forward deadline in R2/R3.
		w := core.EncodeThreadState(th)
		if w[core.TSPc] != cpu.SyscallEntry(sys.NThreadSleep) {
			t.Fatalf("blocked PC %#x, want thread_sleep entry", w[core.TSPc])
		}
		deadline := uint64(w[core.TSR0+2]) | uint64(w[core.TSR0+3])<<32
		if deadline == 0 {
			t.Fatal("deadline not rolled forward into registers")
		}
	})
}

func TestIllegalInstructionKillsThread(t *testing.T) {
	e := newEnv(t, core.Config{Model: core.ModelProcess})
	b := prog.New(codeBase)
	b.Nop().Nop().Halt()
	img := b.MustAssemble()
	if _, err := e.k.LoadImage(e.s, codeBase, img); err != nil {
		t.Fatal(err)
	}
	// Overwrite the second nop with an undecodable opcode.
	if err := e.k.WriteMem(e.s, codeBase+8, []byte{0, 0, 0, 0xFF, 0, 0, 0, 0}); err != nil {
		t.Fatal(err)
	}
	th := e.spawnAt(codeBase, 10)
	e.k.RunFor(1_000_000)
	if th.State != obj.ThDead {
		t.Fatal("thread survived illegal instruction")
	}
	if th.ExitCode != 0xFFFF_00FF {
		t.Fatalf("exit code %#x", th.ExitCode)
	}
}

func TestFatalFaultKillsThread(t *testing.T) {
	forEachConfig(t, func(t *testing.T, cfg core.Config) {
		e := newEnv(t, cfg)
		b := prog.New(codeBase)
		b.Movi(4, 0xDEAD0000).Ld(5, 4, 0).Halt()
		th := e.spawn(t, b, 10)
		e.k.RunFor(1_000_000)
		if th.State != obj.ThDead {
			t.Fatal("thread survived fatal fault")
		}
	})
}

func TestPerfReadCounters(t *testing.T) {
	e := newEnv(t, core.Config{Model: core.ModelProcess})
	b := prog.New(codeBase)
	b.Null().Null().Null().
		Movi(1, 0).Syscall(sys.NPerfRead).
		Movi(6, dataBase).St(6, 0, 1).
		Halt()
	th := e.spawn(t, b, 10)
	e.run(t, 50_000_000, th)
	if got := e.word(t, dataBase); got < 4 {
		t.Fatalf("perf_read syscall count = %d, want >= 4", got)
	}
}

func fmtRegs(r cpu.Regs) string {
	return fmt.Sprintf("PC=%#x R=%v", r.PC, r.R)
}
