package core_test

// Guest-level tests for the syscalls not covered by core_test.go: the
// remaining long calls, the common-op family via the API itself, and the
// short type-specific calls.

import (
	"testing"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/mem"
	"repro/internal/obj"
	"repro/internal/prog"
	"repro/internal/sys"
)

func TestClockAlarmWait(t *testing.T) {
	forEachConfig(t, func(t *testing.T, cfg core.Config) {
		e := newEnv(t, cfg)
		b := prog.New(codeBase)
		// Absolute wait until t=5000 µs, then record the clock.
		b.Movi(1, 5000).Movi(2, 0).Syscall(sys.NClockAlarmWait).
			ClockGet().
			Movi(6, dataBase).St(6, 0, 1).
			Halt()
		th := e.spawn(t, b, 10)
		e.run(t, 100_000_000, th)
		us := e.word(t, dataBase)
		if us < 5000 || us > 6000 {
			t.Fatalf("woke at %d µs, want ~5000", us)
		}
	})
}

func TestClockAlarmWaitInPastReturnsImmediately(t *testing.T) {
	e := newEnv(t, core.Config{Model: core.ModelInterrupt})
	b := prog.New(codeBase)
	b.ThreadSleepUS(1000).
		Movi(1, 10).Movi(2, 0).Syscall(sys.NClockAlarmWait). // t=10µs is long past
		Movi(6, dataBase).St(6, 0, 0).
		Halt()
	th := e.spawn(t, b, 10)
	e.run(t, 100_000_000, th)
	if got := e.word(t, dataBase); got != uint32(sys.EOK) {
		t.Fatalf("errno %v", sys.Errno(got))
	}
}

func TestIRQWaitAndRaise(t *testing.T) {
	forEachConfig(t, func(t *testing.T, cfg core.Config) {
		e := newEnv(t, cfg)
		b := prog.New(codeBase)
		// A "device driver" thread: wait for IRQ 3, record, wait again.
		b.IRQWait(3).
			Movi(6, dataBase).St(6, 0, 0). // errno
			ClockGet().
			Movi(6, dataBase).St(6, 4, 1). // time of delivery
			Halt()
		th := e.spawn(t, b, 20)
		e.k.RunFor(1_000_000)
		if th.State != obj.ThBlocked {
			t.Fatalf("driver not blocked: %v", th.State)
		}
		// Raise the line at a known time.
		raisedUS := e.k.Clock.Now() / 200
		e.k.RaiseIRQ(3)
		e.run(t, 100_000_000, th)
		if got := e.word(t, dataBase); got != uint32(sys.EOK) {
			t.Fatalf("errno %v", sys.Errno(got))
		}
		us := uint64(e.word(t, dataBase+4))
		if us < raisedUS || us > raisedUS+1000 {
			t.Fatalf("IRQ delivered at %d µs, raised at %d (want prompt dispatch)", us, raisedUS)
		}
	})
}

func TestIRQWaitBadLine(t *testing.T) {
	e := newEnv(t, core.Config{Model: core.ModelProcess})
	b := prog.New(codeBase)
	b.IRQWait(99).
		Movi(6, dataBase).St(6, 0, 0).
		Halt()
	th := e.spawn(t, b, 10)
	e.run(t, 10_000_000, th)
	if got := e.word(t, dataBase); got != uint32(sys.EINVAL) {
		t.Fatalf("errno %v, want EINVAL", sys.Errno(got))
	}
}

func TestPortsetWaitSeesConnector(t *testing.T) {
	forEachConfig(t, func(t *testing.T, cfg core.Config) {
		e := newEnv(t, cfg)
		bindIPC(t, e.k, e.s, e.s)
		// Watcher: portset_wait then record EOK. (It does not accept, so
		// the client stays queued.)
		w := prog.New(codeBase + 0x8000)
		w.Movi(1, psVA).Syscall(sys.NPortsetWait).
			Movi(6, dataBase).St(6, 0, 0).
			Halt()
		cli := prog.New(codeBase)
		cli.IPCClientConnectSend(dataBase+0x1000, 1, refVA).Halt()
		if _, err := e.k.LoadImage(e.s, w.Base(), w.MustAssemble()); err != nil {
			t.Fatal(err)
		}
		watcher := e.spawnAt(w.Base(), 10)
		client := e.spawn(t, cli, 10)
		e.run(t, 100_000_000, watcher)
		_ = client
		if got := e.word(t, dataBase); got != uint32(sys.EOK) {
			t.Fatalf("portset_wait errno %v", sys.Errno(got))
		}
	})
}

func TestSpaceReapWait(t *testing.T) {
	forEachConfig(t, func(t *testing.T, cfg core.Config) {
		e := newEnv(t, cfg)
		const childSpace = dataBase + 0x700
		b := prog.New(codeBase)
		// Main: create a space, then destroy it.
		b.Create(sys.ObjSpace, childSpace).
			ThreadSleepUS(2000).
			Destroy(sys.ObjSpace, childSpace).
			Halt()
		// Reaper: wait for the space to die.
		b.Label("reaper").
			ThreadSleepUS(500). // let main create it first
			Movi(1, childSpace).Syscall(sys.NSpaceReapWait).
			Movi(6, dataBase).St(6, 0, 0).
			ClockGet().
			Movi(6, dataBase).St(6, 4, 1).
			Halt()
		main := e.spawn(t, b, 10)
		reaper := e.spawnAt(b.Addr("reaper"), 10)
		e.run(t, 400_000_000, main, reaper)
		if got := e.word(t, dataBase); got != uint32(sys.EOK) {
			t.Fatalf("reap errno %v", sys.Errno(got))
		}
		if us := e.word(t, dataBase+4); us < 2000 {
			t.Fatalf("reaper woke at %d µs, before the destroy", us)
		}
	})
}

func TestThreadSuspendResumeViaSyscalls(t *testing.T) {
	forEachConfig(t, func(t *testing.T, cfg core.Config) {
		e := newEnv(t, cfg)
		b := prog.New(codeBase)
		// Sleeper suspends itself; the waker resumes it by handle.
		b.Syscall(sys.NThreadSuspendSelf).
			ClockGet().
			Movi(6, dataBase).St(6, 0, 1).
			Halt()
		sleeper := e.spawn(t, b, 10)
		e.k.RunFor(1_000_000)
		if !sleeper.Stopped {
			t.Fatalf("sleeper not stopped (state %v)", sleeper.State)
		}
		w := prog.New(codeBase + 0x8000)
		w.ThreadSleepUS(5000).
			Movi(1, sleeper.VA).Syscall(sys.NThreadResume).
			Halt()
		if _, err := e.k.LoadImage(e.s, w.Base(), w.MustAssemble()); err != nil {
			t.Fatal(err)
		}
		waker := e.spawnAt(w.Base(), 10)
		e.run(t, 400_000_000, sleeper, waker)
		if us := e.word(t, dataBase); us < 5000 {
			t.Fatalf("sleeper resumed at %d µs, before the resume call", us)
		}
	})
}

func TestThreadStopIsPromptAndResumable(t *testing.T) {
	forEachConfig(t, func(t *testing.T, cfg core.Config) {
		e := newEnv(t, cfg)
		spin := prog.New(codeBase)
		spin.Movi(6, 0).
			Label("spin").
			Addi(6, 6, 1).
			Movi(4, dataBase).St(4, 0, 6). // progress marker
			Movi(5, 100_000_000).
			Blt(6, 5, "spin").
			Halt()
		victim := e.spawn(t, spin, 10)
		st := prog.New(codeBase + 0x8000)
		st.ThreadSleepUS(1000).
			Movi(1, victim.VA).Syscall(sys.NThreadStop).
			Movi(6, dataBase+0x100).St(6, 0, 0). // stop errno
			ThreadSleepUS(20_000).               // long quiet window
			Movi(1, victim.VA).Syscall(sys.NThreadResume).
			Halt()
		if _, err := e.k.LoadImage(e.s, st.Base(), st.MustAssemble()); err != nil {
			t.Fatal(err)
		}
		controller := e.spawnAt(st.Base(), 20)
		e.k.RunFor(300_000) // past the stop, before the resume
		if got := e.word(t, dataBase+0x100); got != uint32(sys.EOK) {
			t.Fatalf("stop errno %v", sys.Errno(got))
		}
		if !victim.Stopped {
			t.Fatal("victim not stopped")
		}
		frozen := e.word(t, dataBase)
		e.k.RunFor(100_000)
		if e.word(t, dataBase) != frozen {
			t.Fatal("victim made progress while stopped")
		}
		e.k.RunFor(10_000_000)
		_ = controller
		if e.word(t, dataBase) == frozen {
			t.Fatal("victim made no progress after resume")
		}
	})
}

func TestThreadSetPriorityViaSyscall(t *testing.T) {
	e := newEnv(t, core.Config{Model: core.ModelProcess})
	b := prog.New(codeBase)
	b.ThreadSelf(). // R1 = own handle
			Movi(2, 25).Syscall(sys.NThreadSetPriority).
			Movi(6, dataBase).St(6, 0, 0).
			Syscall(sys.NThreadPrioritySelf).
			Movi(6, dataBase).St(6, 4, 1).
		// Out-of-range priority rejected.
		ThreadSelf().
		Movi(2, 99).Syscall(sys.NThreadSetPriority).
		Movi(6, dataBase).St(6, 8, 0).
		Halt()
	th := e.spawn(t, b, 10)
	e.run(t, 50_000_000, th)
	if got := e.word(t, dataBase); got != uint32(sys.EOK) {
		t.Fatalf("set errno %v", sys.Errno(got))
	}
	if got := e.word(t, dataBase+4); got != 25 {
		t.Fatalf("priority %d, want 25", got)
	}
	if got := e.word(t, dataBase+8); got != uint32(sys.EINVAL) {
		t.Fatalf("bad priority errno %v, want EINVAL", sys.Errno(got))
	}
}

func TestRenameAndGetStateViaSyscalls(t *testing.T) {
	forEachConfig(t, func(t *testing.T, cfg core.Config) {
		e := newEnv(t, cfg)
		const (
			mtx  = dataBase + 0x100
			name = dataBase + 0x200
			buf  = dataBase + 0x300
		)
		b := prog.New(codeBase)
		b.MutexCreate(mtx)
		// Write "flk" at name.
		b.Movi(4, name).Movi(5, 'f').Stb(4, 0, 5).
			Movi(5, 'l').Stb(4, 1, 5).
			Movi(5, 'k').Stb(4, 2, 5)
		// rename(mtx, name, 3)
		b.Movi(1, mtx).Movi(2, name).Movi(3, 3).
			Syscall(sys.CommonOpNum(sys.ObjMutex, sys.OpRename)).
			Movi(6, dataBase).St(6, 0, 0)
		// Lock it, then get_state: words = [locked, holderID, waiters].
		b.MutexTrylock(mtx).
			GetState(sys.ObjMutex, mtx, buf).
			Movi(6, dataBase).St(6, 4, 1). // words written
			Movi(4, buf).Ld(5, 4, 0).
			Movi(6, dataBase).St(6, 8, 5). // locked flag
			Halt()
		th := e.spawn(t, b, 10)
		e.run(t, 100_000_000, th)
		if got := e.word(t, dataBase); got != uint32(sys.EOK) {
			t.Fatalf("rename errno %v", sys.Errno(got))
		}
		if got := e.word(t, dataBase+4); got != 3 {
			t.Fatalf("get_state wrote %d words, want 3", got)
		}
		if got := e.word(t, dataBase+8); got != 1 {
			t.Fatalf("locked flag %d, want 1", got)
		}
		m := e.s.At(mtx)
		if m == nil || m.Hdr().Name != "flk" {
			t.Fatalf("rename did not apply: %+v", m)
		}
	})
}

func TestReferenceCommonOp(t *testing.T) {
	e := newEnv(t, core.Config{Model: core.ModelInterrupt})
	const (
		port = dataBase + 0x100
		ref  = dataBase + 0x104
		ref2 = dataBase + 0x108
	)
	b := prog.New(codeBase)
	b.Create(sys.ObjPort, port).
		Create(sys.ObjRef, ref).
		Create(sys.ObjRef, ref2).
		// port_reference(port, ref): point ref at port.
		Movi(1, port).Movi(2, ref).
		Syscall(sys.CommonOpNum(sys.ObjPort, sys.OpReference)).
		Movi(6, dataBase).St(6, 0, 0).
		// mutex_reference is invalid per Table 2 (only Mapping, Region,
		// Port, Thread, Space may be referenced).
		Movi(1, port).Movi(2, ref2).
		Syscall(sys.CommonOpNum(sys.ObjMutex, sys.OpReference)).
		Movi(6, dataBase).St(6, 4, 0).
		Halt()
	th := e.spawn(t, b, 10)
	e.run(t, 50_000_000, th)
	if got := e.word(t, dataBase); got != uint32(sys.EOK) {
		t.Fatalf("port_reference errno %v", sys.Errno(got))
	}
	if got := e.word(t, dataBase+4); got != uint32(sys.EINVAL) {
		t.Fatalf("mutex_reference errno %v, want EINVAL", sys.Errno(got))
	}
	r := e.s.At(ref).(*obj.Ref)
	if r.Target == nil || obj.TypeOf(r.Target) != sys.ObjPort {
		t.Fatal("reference not pointed at the port")
	}
	if e.s.At(port).Hdr().Refs != 1 {
		t.Fatal("refcount not bumped")
	}
}

func TestRegionAndMappingCreateViaSyscalls(t *testing.T) {
	forEachConfig(t, func(t *testing.T, cfg core.Config) {
		e := newEnv(t, cfg)
		const (
			regH = dataBase + 0x100
			mapH = dataBase + 0x104
			win  = 0x0080_0000
		)
		b := prog.New(codeBase)
		// region_create(regH, 4 pages, demand-zero)
		b.Movi(1, regH).Movi(2, 4*mem.PageSize).Movi(3, 1).
			Syscall(sys.CommonOpNum(sys.ObjRegion, sys.OpCreate)).
			Movi(6, dataBase).St(6, 0, 0)
		// mapping_create(mapH, regH, win, 4 pages, off 0)
		b.Movi(1, mapH).Movi(2, regH).Movi(3, win).Movi(4, 4*mem.PageSize).Movi(5, 0).
			Syscall(sys.CommonOpNum(sys.ObjMapping, sys.OpCreate)).
			Movi(6, dataBase).St(6, 4, 0)
		// Touch the new window (demand-zero soft fault + restart).
		b.Movi(4, win).Movi(5, 0x77).St(4, 0, 5).
			Ld(5, 4, 0).
			Movi(6, dataBase).St(6, 8, 5)
		// mem_free page 0 of the region, then re-touch: fresh zero page.
		b.Movi(1, regH).Movi(2, 0).Movi(3, 1).Syscall(sys.NMemFree).
			Movi(4, win).Ld(5, 4, 0).
			Movi(6, dataBase).St(6, 12, 5).
			Halt()
		th := e.spawn(t, b, 10)
		e.run(t, 100_000_000, th)
		for i, want := range []uint32{uint32(sys.EOK), uint32(sys.EOK), 0x77, 0} {
			if got := e.word(t, dataBase+uint32(i)*4); got != want {
				t.Fatalf("step %d = %#x, want %#x", i, got, want)
			}
		}
	})
}

// TestRegionCreateRejectsBadSizes: a size of zero, or one whose page
// round-up wraps to zero, is EINVAL, not an empty region.
func TestRegionCreateRejectsBadSizes(t *testing.T) {
	e := newEnv(t, core.Config{Model: core.ModelProcess})
	sizes := []uint32{0, 0xFFFFF001, 0xFFFFFFFF}
	b := prog.New(codeBase)
	for i, size := range sizes {
		b.Movi(1, dataBase+0x100+uint32(i)*4).Movi(2, size).Movi(3, 1).
			Syscall(sys.CommonOpNum(sys.ObjRegion, sys.OpCreate)).
			Movi(6, dataBase).St(6, uint32(i)*4, 0)
	}
	b.Halt()
	th := e.spawn(t, b, 10)
	e.run(t, 100_000_000, th)
	for i, size := range sizes {
		if got := e.word(t, dataBase+uint32(i)*4); got != uint32(sys.EINVAL) {
			t.Errorf("region_create(%#x): errno %v, want EINVAL", size, sys.Errno(got))
		}
	}
}

func TestRegionProtectViaSyscall(t *testing.T) {
	e := newEnv(t, core.Config{Model: core.ModelProcess})
	const (
		regH = dataBase + 0x100
		mapH = dataBase + 0x104
		win  = 0x0080_0000
	)
	b := prog.New(codeBase)
	b.Movi(1, regH).Movi(2, mem.PageSize).Movi(3, 1).
		Syscall(sys.CommonOpNum(sys.ObjRegion, sys.OpCreate)).
		Movi(1, mapH).Movi(2, regH).Movi(3, win).Movi(4, mem.PageSize).Movi(5, 0).
		Syscall(sys.CommonOpNum(sys.ObjMapping, sys.OpCreate)).
		Movi(4, win).Movi(5, 9).St(4, 0, 5). // populate page
		// region_protect(mapping, read-only)
		Movi(1, mapH).Movi(2, 1).Syscall(sys.NRegionProtect).
		Movi(6, dataBase).St(6, 0, 0).
		// Reads still work.
		Movi(4, win).Ld(5, 4, 0).
		Movi(6, dataBase).St(6, 4, 5).
		// The next store fatally faults (no mapping permits it).
		Movi(4, win).Movi(5, 1).St(4, 0, 5).
		Halt()
	th := e.spawn(t, b, 10)
	e.k.RunFor(100_000_000)
	if got := e.word(t, dataBase); got != uint32(sys.EOK) {
		t.Fatalf("protect errno %v", sys.Errno(got))
	}
	if got := e.word(t, dataBase+4); got != 9 {
		t.Fatalf("read-after-protect %d, want 9", got)
	}
	if th.State != obj.ThDead || th.Exited && th.ExitCode == 0 {
		t.Fatalf("store to read-only page did not kill the thread (state %v)", th.State)
	}
}

func TestThreadCreateSetStateResumeViaSyscalls(t *testing.T) {
	forEachConfig(t, func(t *testing.T, cfg core.Config) {
		e := newEnv(t, cfg)
		const (
			childH = dataBase + 0x100
			frame  = dataBase + 0x400
		)
		b := prog.New(codeBase)
		// Child body: store 0x42 and halt.
		b.Label("child").
			Movi(4, dataBase).Movi(5, 0x42).St(4, 4, 5).
			Halt()
		// Parent: create a thread, build a state frame with
		// PC = child entry, set_state, resume, join.
		b.Label("parent").
			Create(sys.ObjThread, childH).
			Movi(6, dataBase).St(6, 0, 0)
		// frame[0] = PC; other words zero (the window is demand-zero).
		b.Movi(4, frame).Movi(5, 0).St(4, 0, 5) // touch page
		b.Movi(4, frame).Movi(5, 0).Movi(2, core.TSPriority*4)
		b.Movi(5, 10).Add(3, 4, 2).St(3, 0, 5) // priority word
		b.Movi(4, frame)
		// PC word: child entry address.
		b.Movi(5, 0).Addi(5, 5, 0) // placeholder; patched below via imm
		b.Label("patchpc")
		b.St(4, 0, 5).
			SetState(sys.ObjThread, childH, frame).
			Movi(6, dataBase).St(6, 8, 0).
			Movi(1, childH).Syscall(sys.NThreadResume).
			Movi(1, childH).Syscall(sys.NThreadWait).
			Movi(6, dataBase).St(6, 12, 0).
			Halt()
		img := b.MustAssemble()
		if _, err := e.k.LoadImage(e.s, codeBase, img); err != nil {
			t.Fatal(err)
		}
		// Patch the placeholder movi imm (two instructions before
		// "patchpc") with the child's entry PC.
		patch := b.Addr("patchpc") - 2*cpu.InstrSize + 4
		pc := b.Addr("child")
		if err := e.k.WriteMem(e.s, patch, []byte{byte(pc), byte(pc >> 8), byte(pc >> 16), byte(pc >> 24)}); err != nil {
			t.Fatal(err)
		}
		parent := e.spawnAt(b.Addr("parent"), 10)
		e.run(t, 200_000_000, parent)
		for _, off := range []uint32{0, 8, 12} {
			if got := e.word(t, dataBase+off); got != uint32(sys.EOK) {
				t.Fatalf("step at +%d errno %v", off, sys.Errno(got))
			}
		}
		if got := e.word(t, dataBase+4); got != 0x42 {
			t.Fatalf("child marker %#x, want 0x42", got)
		}
	})
}

func TestRegionSearchInterruptible(t *testing.T) {
	// region_search over a huge range is a multi-stage call: a pending
	// thread_interrupt is consumed at a stage boundary and the registers
	// show exactly how much range remains.
	e := newEnv(t, core.Config{Model: core.ModelInterrupt})
	b := prog.New(codeBase)
	b.RegionSearch(0x4000_0000, 512<<20). // 512 MB: 131072 pages of scanning
						Movi(6, dataBase).St(6, 0, 0).
						Movi(6, dataBase).St(6, 4, 2). // R2: remaining words
						Halt()
	th := e.spawn(t, b, 10)
	// A pending interrupt is consumed at the first stage boundary of the
	// multi-stage call.
	th.Interrupted = true
	e.k.RunFor(400_000_000)
	if !th.Exited {
		t.Fatalf("search never returned (pc=%#x)", th.Regs.PC)
	}
	if got := e.word(t, dataBase); got != uint32(sys.EINTR) {
		t.Fatalf("errno %v, want EINTR", sys.Errno(got))
	}
	if rem := e.word(t, dataBase+4); rem == 0 || rem == 512<<20 {
		t.Fatalf("remaining range %d: registers not rolled forward", rem)
	}
}

func TestSpaceCreateRunsThreads(t *testing.T) {
	// space_create via syscall gives a fresh space; the host can then
	// populate it. (Guests cannot load code cross-space; that is a
	// manager operation, done here host-side.)
	e := newEnv(t, core.Config{Model: core.ModelProcess})
	const spcH = dataBase + 0x100
	b := prog.New(codeBase)
	b.Create(sys.ObjSpace, spcH).
		Movi(6, dataBase).St(6, 0, 0).
		Halt()
	th := e.spawn(t, b, 10)
	e.run(t, 50_000_000, th)
	if got := e.word(t, dataBase); got != uint32(sys.EOK) {
		t.Fatalf("space_create errno %v", sys.Errno(got))
	}
	sp, ok := e.s.At(spcH).(*obj.Space)
	if !ok {
		t.Fatal("no space object bound")
	}
	// Host loads a trivial program into the new space and runs it.
	nb := prog.New(codeBase)
	nb.Movi(1, 7).Halt()
	nt, err := e.k.SpawnProgram(sp, codeBase, nb.MustAssemble(), 10)
	if err != nil {
		t.Fatal(err)
	}
	e.k.RunFor(10_000_000)
	if !nt.Exited || nt.ExitCode != 7 {
		t.Fatalf("thread in new space: exited=%v code=%d", nt.Exited, nt.ExitCode)
	}
}

func TestMutexDestroyWakesWaiters(t *testing.T) {
	forEachConfig(t, func(t *testing.T, cfg core.Config) {
		e := newEnv(t, cfg)
		const mtx = dataBase + 0x100
		b := prog.New(codeBase)
		b.MutexCreate(mtx).
			MutexLock(mtx).
			MutexLock(mtx). // blocks forever
			Movi(6, dataBase).St(6, 0, 0).
			Halt()
		waiter := e.spawn(t, b, 10)
		d := prog.New(codeBase + 0x8000)
		d.ThreadSleepUS(1000).
			Destroy(sys.ObjMutex, mtx).
			Halt()
		if _, err := e.k.LoadImage(e.s, d.Base(), d.MustAssemble()); err != nil {
			t.Fatal(err)
		}
		destroyer := e.spawnAt(d.Base(), 10)
		e.run(t, 100_000_000, waiter, destroyer)
		if got := e.word(t, dataBase); got != uint32(sys.ESRCH) {
			t.Fatalf("waiter errno %v, want ESRCH (object died)", sys.Errno(got))
		}
	})
}

func TestCondBroadcastWakesAllWaiters(t *testing.T) {
	forEachConfig(t, func(t *testing.T, cfg core.Config) {
		e := newEnv(t, cfg)
		const (
			mtx = dataBase + 0x100
			cnd = dataBase + 0x104
			ctr = dataBase + 0x200
		)
		b := prog.New(codeBase)
		// Waiter: lock; cond_wait once; count; unlock; halt.
		b.Label("waiter").
			MutexLock(mtx).
			CondWait(cnd, mtx).
			Movi(4, ctr).Ld(5, 4, 0).Addi(5, 5, 1).St(4, 0, 5).
			MutexUnlock(mtx).
			Halt()
		b.Label("caster").
			MutexCreate(mtx).CondCreate(cnd).
			ThreadSleepUS(2000). // let waiters block
			CondBroadcast(cnd).
			Halt()
		caster := e.spawnAt(codeBase, 0) // placeholder, replaced below
		e.k.DestroyThread(caster)
		img := b.MustAssemble()
		if _, err := e.k.LoadImage(e.s, codeBase, img); err != nil {
			t.Fatal(err)
		}
		// Creator must run first to create the objects.
		c := e.spawnAt(b.Addr("caster"), 12)
		var waiters []*obj.Thread
		for i := 0; i < 3; i++ {
			waiters = append(waiters, e.spawnAt(b.Addr("waiter"), 10))
		}
		e.run(t, 400_000_000, append(waiters, c)...)
		if got := e.word(t, ctr); got != 3 {
			t.Fatalf("woken waiters %d, want 3", got)
		}
	})
}

func TestIPCClientAlertInterruptsPeer(t *testing.T) {
	forEachConfig(t, func(t *testing.T, cfg core.Config) {
		e := newEnv(t, cfg)
		bindIPC(t, e.k, e.s, e.s)
		const srvBuf = dataBase + 0x2000
		// Server: accept, then wait for more data that never comes; the
		// client's alert breaks it out with EINTR.
		srv := prog.New(codeBase + 0x8000)
		srv.IPCWaitReceive(srvBuf, 64, psVA).
			Movi(6, dataBase).St(6, 0, 0).
			Halt()
		cli := prog.New(codeBase)
		cli.Movi(4, dataBase+0x1000).Movi(5, 1).St(4, 0, 5).
			IPCClientConnectSend(dataBase+0x1000, 1, refVA).
			ThreadSleepUS(2000).
			Syscall(sys.NIPCClientAlert).
			Movi(6, dataBase).St(6, 4, 0).
			ThreadSleepUS(1_000_000).
			Halt()
		if _, err := e.k.LoadImage(e.s, srv.Base(), srv.MustAssemble()); err != nil {
			t.Fatal(err)
		}
		server := e.spawnAt(srv.Base(), 10)
		client := e.spawn(t, cli, 10)
		_ = client
		e.run(t, 900_000_000, server)
		if got := e.word(t, dataBase); got != uint32(sys.EINTR) {
			t.Fatalf("server errno %v, want EINTR (alert)", sys.Errno(got))
		}
		if got := e.word(t, dataBase+4); got != uint32(sys.EOK) {
			t.Fatalf("alert errno %v", sys.Errno(got))
		}
	})
}
