package core_test

// The model-equivalence fuzzer: randomized guest programs (computation,
// memory traffic, syscalls, blocking, sleeping, yielding) must produce
// bit-identical user-visible results under every kernel configuration —
// the paper's claim that the execution model is invisible to the API
// ("the configuration option to select between the two models has no
// impact on the functionality of the API", §3.1), checked mechanically
// by internal/equiv in every cell of its matrix.

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/equiv"
	"repro/internal/obj"
	"repro/internal/prog"
	"repro/internal/sys"
)

const (
	eqMtx    = dataBase + 0x10
	eqShared = dataBase + 0x80
	eqAreaA  = dataBase + 0x1000 // thread A's private area
	eqAreaB  = dataBase + 0x2000 // thread B's private area
	eqArea   = 0x1000
)

// genThread emits a random but schedule-independent action sequence:
// private-area stores and read-modify-writes, trivial syscalls, sleeps,
// yields, mutex-protected shared-counter increments, and echo RPCs. All
// cross-thread state is commutative (and echo replies depend only on the
// request), so every legal schedule yields the same final memory.
func genThread(b *prog.Builder, rng *rand.Rand, label string, area uint32, actions int) {
	b.Label(label)
	for i := 0; i < actions; i++ {
		switch rng.Intn(8) {
		case 0: // store a constant into a private slot
			slot := area + uint32(rng.Intn(eqArea/4))*4
			b.Movi(4, slot).Movi(5, rng.Uint32()).St(4, 0, 5)
		case 1: // read-modify-write a private slot
			slot := area + uint32(rng.Intn(eqArea/4))*4
			b.Movi(4, slot).Ld(5, 4, 0).Addi(5, 5, rng.Uint32()%1000).St(4, 0, 5)
		case 2: // trivial syscall
			b.Null()
		case 3: // short sleep
			b.ThreadSleepUS(uint32(1 + rng.Intn(40)))
		case 4: // voluntary yield
			b.SchedYield()
		case 5: // shared counter under the kernel mutex
			b.MutexLock(eqMtx).
				Movi(4, eqShared).Ld(5, 4, 0).Addi(5, 5, 1).St(4, 0, 5).
				MutexUnlock(eqMtx)
		case 6: // pure computation on a callee-kept register
			b.Addi(6, 6, rng.Uint32()%97)
		case 7: // echo RPC: reply depends only on the request
			sbuf := area + 0x40
			rbuf := area + uint32(0x60+4*rng.Intn(16))&^3
			b.Movi(4, sbuf).Movi(5, rng.Uint32()).St(4, 0, 5).
				IPCClientConnectSendOverReceive(sbuf, 1, refVA, rbuf, 1).
				IPCClientDisconnect()
		}
	}
	// Publish the register accumulator so it is part of the result.
	b.Movi(4, area+eqArea-4).St(4, 0, 6)
	b.Halt()
}

// seeded is the seeded two-thread program as a scenario's Run; its digest
// carries the shared counter and both private areas.
func seeded(seed int64) func(*testing.T, *equiv.Run) *equiv.Digest {
	return func(t *testing.T, r *equiv.Run) *equiv.Digest {
		return runSeed(t, r, seed)
	}
}

func runSeed(t *testing.T, r *equiv.Run, seed int64) *equiv.Digest {
	t.Helper()
	e := newEnv(t, r.Config)
	e.k.EnableMetrics() // metrics never perturb virtual time
	bindIPC(t, e.k, e.s, e.s)
	mo, _ := obj.New(sys.ObjMutex)
	if err := e.k.Bind(e.s, eqMtx, mo); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	b := prog.New(codeBase)
	// Echo server: receive one word, reply with it doubled, loop. The
	// receive buffer is two words for a one-word request so the receive
	// completes on the client's message-end (after its turnaround), never
	// on buffer-full — a buffer-full completion can beat the client's
	// flip, making reply_wait_receive's ESTATE depend on the schedule.
	// The reply is computed into a separate buffer so a retried reply is
	// idempotent. Both are needed for the schedule-independence the
	// equivalence tests rest on.
	const (
		ebuf = dataBase + 0x3000
		erep = dataBase + 0x3800
	)
	b.Label("echo").
		IPCWaitReceive(ebuf, 2, psVA).
		Label("echo.loop").
		Movi(4, ebuf).Ld(5, 4, 0).Add(5, 5, 5).
		Movi(4, erep).St(4, 0, 5).
		IPCReplyWaitReceive(erep, 1, psVA, ebuf, 2).
		Jmp("echo.loop")
	actions := 15 + rng.Intn(25)
	genThread(b, rng, "ta", eqAreaA, actions)
	genThread(b, rng, "tb", eqAreaB, actions)
	img := b.MustAssemble()
	if _, err := e.k.LoadImage(e.s, codeBase, img); err != nil {
		t.Fatal(err)
	}
	e.spawnAt(b.Addr("echo"), 12)
	ta := e.spawnAt(b.Addr("ta"), 10)
	tb := e.spawnAt(b.Addr("tb"), 10)
	// In the restore step the run ends on a fresh kernel, where a worker
	// that exited before the cut was never restored.
	e.k, e.s = r.Go(e.k, e.s, 4_000_000_000)
	for _, th := range []*obj.Thread{ta, tb} {
		if x, _ := e.s.At(th.VA).(*obj.Thread); x != nil && !x.Exited {
			t.Fatalf("worker at %#x did not exit (pc=%#x)", th.VA, x.Regs.PC)
		}
	}
	d := equiv.Take(t, e.k)
	d.Mem = []equiv.Range{
		equiv.Read(t, e.k, e.s, "shared counter", eqShared, 4),
		equiv.Read(t, e.k, e.s, "area A", eqAreaA, eqArea),
		equiv.Read(t, e.k, e.s, "area B", eqAreaB, eqArea),
	}
	return d
}

// seedFlags are the flags the seeded program exercises. It moves no page-
// sized IPC run, so zero-copy never fires.
var seedFlags = []equiv.Flag{equiv.FastPath, equiv.ThreadedCode, equiv.Profiler, equiv.IPCFastPath}

// checkSeed runs the seeded program through the full cross-product of
// seedFlags. It does so under the names of the tests it replaced, one seed
// each; TestProfilerDeterministicPerSeed is among them because the
// determinism step reruns the run with every flag, the profiler's included.
func checkSeed(t *testing.T, seed int64) {
	equiv.Check(t, equiv.Scenario{Flags: seedFlags, Run: seeded(seed)})
}

func TestFastPathEquivalence(t *testing.T)                { checkSeed(t, 31337) }
func TestIPCFastPathEquivalence(t *testing.T)             { checkSeed(t, 1) }
func TestThreadedCodeEquivalence(t *testing.T)            { checkSeed(t, 42) }
func TestProfilerEquivalence(t *testing.T)                { checkSeed(t, 7) }
func TestUniprocessorLockModelsBitIdentical(t *testing.T) { checkSeed(t, 0xF1BE) }
func TestModelEquivalence(t *testing.T)                   { checkSeed(t, 271828) }
func TestProfilerDeterministicPerSeed(t *testing.T)       { checkSeed(t, 31415926) }

// TestMultiCPUDeterministic also repeats runs at 8, 16 and 64 CPUs, which
// exercise the clock heap and the per-instance lock table at scale; fine
// is the model whose slot fan-out could plausibly perturb the interleaving.
func TestMultiCPUDeterministic(t *testing.T) {
	checkSeed(t, 1999)
	for _, cfg := range allConfigs() {
		for _, n := range []int{8, 16, 64} {
			cfg.NumCPUs, cfg.LockModel = n, core.LockFine
			a, b := runSeed(t, &equiv.Run{Config: cfg}, 1999), runSeed(t, &equiv.Run{Config: cfg}, 1999)
			if diff := equiv.Diff(a, b, equiv.Identical); diff != "" {
				t.Errorf("%s at %d CPUs, run to run: %s%s", cfg.Name(), n, diff, equiv.Replay(t.Name()))
			}
		}
	}
}

// TestModelEquivalenceFuzz sweeps more programs, with no flag: the
// configurations, determinism and restore steps.
func TestModelEquivalenceFuzz(t *testing.T) {
	for _, seed := range []int64{1, 7, 42, 1999, 0xF1BE, 31337, 271828, 31415926} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			equiv.Check(t, equiv.Scenario{Restore: true, Run: seeded(seed)})
		})
	}
}
