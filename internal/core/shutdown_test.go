package core_test

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/prog"
	"repro/internal/trace"
)

// TestShutdownReleasesKernelStacks checks that Shutdown unwinds every
// process-model kernel-stack context: the backing goroutines exit and the
// stack accounting returns to the per-CPU baseline.
func TestShutdownReleasesKernelStacks(t *testing.T) {
	forEachConfig(t, func(t *testing.T, cfg core.Config) {
		before := runtime.NumGoroutine()
		e := newEnv(t, cfg)
		const mtx = dataBase + 0x100
		b := prog.New(codeBase)
		// A mix of states: one blocked forever, one spinning, one asleep.
		b.Label("blocker").MutexCreate(mtx).MutexLock(mtx).MutexLock(mtx).Halt()
		b.Label("spinner").Movi(6, 0).Label("s").Addi(6, 6, 1).Jmp("s")
		b.Label("sleeper").ThreadSleepUS(1 << 30).Halt()
		img := b.MustAssemble()
		if _, err := e.k.LoadImage(e.s, codeBase, img); err != nil {
			t.Fatal(err)
		}
		for _, l := range []string{"blocker", "spinner", "sleeper"} {
			e.spawnAt(b.Addr(l), 10)
		}
		e.k.RunFor(2_000_000)
		if len(e.k.Threads()) != 3 {
			t.Fatalf("threads = %d", len(e.k.Threads()))
		}
		e.k.Shutdown()
		if len(e.k.Threads()) != 0 {
			t.Fatal("threads survive shutdown")
		}
		wantStacks := 0
		if cfg.Model == core.ModelInterrupt {
			wantStacks = 1 // the per-CPU stack
		}
		if got := e.k.StacksInUse(); got != wantStacks {
			t.Fatalf("stacks after shutdown = %d, want %d", got, wantStacks)
		}
		// Give exited goroutines a moment to be reaped before counting.
		if cfg.Model == core.ModelProcess {
			deadline := time.Now().Add(2 * time.Second)
			for runtime.NumGoroutine() > before+2 && time.Now().Before(deadline) {
				runtime.Gosched()
			}
			if g := runtime.NumGoroutine(); g > before+2 {
				t.Fatalf("goroutines leaked: %d -> %d", before, g)
			}
		}
	})
}

// TestShutdownDestroysInThreadIDOrder: Shutdown kills its victims in
// thread-ID order, not in the order the thread table's map iterates, so
// the exit events it leaves (B = the exiting thread) ascend.
func TestShutdownDestroysInThreadIDOrder(t *testing.T) {
	for _, cfg := range []core.Config{{Model: core.ModelProcess}, {Model: core.ModelInterrupt}} {
		e := newEnv(t, cfg)
		b := prog.New(codeBase)
		b.Label("sleeper").ThreadSleepUS(1 << 30).Halt()
		if _, err := e.k.LoadImage(e.s, codeBase, b.MustAssemble()); err != nil {
			t.Fatal(err)
		}
		var want []uint32
		for i := 0; i < 16; i++ {
			want = append(want, e.spawnAt(b.Addr("sleeper"), 10).ID)
		}
		e.k.RunFor(2_000_000)
		e.k.Tracer = trace.NewRing(256)
		e.k.Shutdown()
		var got []uint32
		for _, ev := range e.k.Tracer.Events() {
			if ev.Kind == trace.ThreadExit {
				got = append(got, ev.B)
			}
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%v: exit order %v, want %v", cfg.Model, got, want)
		}
	}
}
