package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/equiv"
	"repro/internal/mem"
	"repro/internal/mmu"
	"repro/internal/prog"
	"repro/internal/sys"
)

// observeProgram exercises every instrumented hot path under all five
// configurations: a mutex handle on an untouched demand-zero page (soft
// fault + syscall restart), a run of null syscalls, a cond wait/signal
// rendezvous (voluntary block + wake), and a timed sleep (timer wake).
// Thread 2 enters at label "t2".
func observeProgram() *prog.Builder {
	const (
		mtx  = dataBase + 8*mem.PageSize // first touch of this page faults
		cnd  = dataBase + 0x104
		flag = dataBase + 0x200
	)
	b := prog.New(codeBase)
	b.MutexCreate(mtx).CondCreate(cnd).
		Null().Null().Null().
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
	b.Label("t2").
		ThreadSleepUS(500).
		MutexLock(mtx).
		Movi(4, flag).Movi(5, 1).St(4, 0, 5).
		CondSignal(cnd).
		MutexUnlock(mtx).
		Halt()
	return b
}

func runObserve(t *testing.T, cfg core.Config, instrument bool) *env {
	t.Helper()
	e := newEnv(t, cfg)
	if instrument {
		e.k.EnableMetrics()
	}
	b := observeProgram()
	t1 := e.spawn(t, b, 10)
	t2 := e.spawnAt(b.Addr("t2"), 10)
	e.run(t, 400_000_000, t1, t2)
	return e
}

// TestMetricsDoNotPerturbVirtualTime pins the observability contract:
// attaching a metrics registry never charges cycles, so the simulated
// timeline — and every Stats aggregate derived from it — is bit-identical
// with and without instrumentation.
func TestMetricsDoNotPerturbVirtualTime(t *testing.T) {
	forEachConfig(t, func(t *testing.T, cfg core.Config) {
		plain, inst := runObserve(t, cfg, false), runObserve(t, cfg, true)
		if diff := equiv.Diff(equiv.Take(t, plain.k), equiv.Take(t, inst.k), equiv.Identical); diff != "" {
			t.Fatalf("metrics on vs off: %s", diff)
		}
	})
}

// TestMetricsMatchStats cross-checks every counter against the Stats
// aggregates the benchmark harness already trusts.
func TestMetricsMatchStats(t *testing.T) {
	// FaultCauseNames order: soft.client, soft.server, hard.client, hard.server.
	causeKeys := [core.NumFaultCauses]core.FaultKey{
		{Class: mmu.FaultSoft, Side: core.FaultSame},
		{Class: mmu.FaultSoft, Side: core.FaultCross},
		{Class: mmu.FaultHard, Side: core.FaultSame},
		{Class: mmu.FaultHard, Side: core.FaultCross},
	}
	forEachConfig(t, func(t *testing.T, cfg core.Config) {
		e := runObserve(t, cfg, true)
		es := e.k.Stats()
		m, st := e.k.Metrics, &es

		if got, want := m.CtxSwitches.Value(), st.ContextSwitches; got != want {
			t.Errorf("sched.context_switches = %d, Stats.ContextSwitches = %d", got, want)
		}
		if got, want := m.RestartsTotal.Value(), st.Restarts; got != want {
			t.Errorf("syscall.restarts = %d, Stats.Restarts = %d", got, want)
		}
		if got, want := m.PreemptsUser.Value(), st.PreemptsUser; got != want {
			t.Errorf("preempts.user_boundary = %d, Stats = %d", got, want)
		}
		if got, want := m.PreemptsPoint.Value(), st.PreemptsPoint; got != want {
			t.Errorf("preempts.explicit_point = %d, Stats = %d", got, want)
		}
		if got, want := m.PreemptsKernel.Value(), st.PreemptsKernel; got != want {
			t.Errorf("preempts.in_kernel = %d, Stats = %d", got, want)
		}

		// Null never blocks, so every dispatch episode completes and is
		// observed by the latency histogram.
		if got, want := m.SyscallLatency[sys.NNull].Count(), st.SyscallsByNum[sys.NNull]; got != want {
			t.Errorf("null latency observations = %d, SyscallsByNum = %d", got, want)
		}
		var observed uint64
		for n := 0; n < sys.NumSyscalls; n++ {
			observed += m.SyscallLatency[n].Count()
		}
		if observed == 0 || observed > st.Syscalls {
			t.Errorf("latency episodes observed = %d, Stats.Syscalls = %d", observed, st.Syscalls)
		}

		restarts := m.RestartsByCause()
		for i, key := range causeKeys {
			name := core.FaultCauseNames[i]
			if got, want := restarts[i], st.FaultCount[key]; got != want {
				t.Errorf("fault.restarts.%s = %d, Stats.FaultCount = %d", name, got, want)
			}
			if got, want := m.RollbackCycles[i].Value(), st.FaultRollback[key]; got != want {
				t.Errorf("fault.rollback_cycles.%s = %d, Stats.FaultRollback = %d", name, got, want)
			}
			if got, want := m.RemedyCycles[i].Value(), st.FaultRemedy[key]; got != want {
				t.Errorf("fault.remedy_cycles.%s = %d, Stats.FaultRemedy = %d", name, got, want)
			}
		}
		if restarts[0] == 0 {
			t.Error("workload should have produced at least one soft.client restart")
		}
		if m.FaultsFatal.Value() != 0 {
			t.Errorf("fault.fatal = %d, want 0", m.FaultsFatal.Value())
		}

		if m.Wakes.Value() == 0 {
			t.Error("no wakes counted despite sleep and cond_signal")
		}
		if got := m.ThreadsCreated.Value(); got != 2 {
			t.Errorf("threads.created = %d, want 2", got)
		}
		if got := m.ThreadsLive.Value(); got != 0 {
			t.Errorf("threads.live = %d after both exited, want 0", got)
		}
	})
}
