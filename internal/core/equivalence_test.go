package core_test

// The model-equivalence fuzzer: randomized guest programs (computation,
// memory traffic, syscalls, blocking, sleeping, yielding) must produce
// bit-identical user-visible results under every kernel configuration —
// the paper's claim that the execution model is invisible to the API
// ("the configuration option to select between the two models has no
// impact on the functionality of the API", §3.1), checked mechanically.

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/core"
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

// runSeed builds the seeded two-thread program on cfg and returns the
// final observable memory and the kernel (for Stats / virtual-time
// comparison).
func runSeed(t *testing.T, cfg core.Config, seed int64) ([]byte, *core.Kernel) {
	t.Helper()
	e := newEnv(t, cfg)
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
	e.run(t, 4_000_000_000, ta, tb)
	out, err := e.k.ReadMem(e.s, dataBase+0x80, 4) // shared counter
	if err != nil {
		t.Fatal(err)
	}
	for _, area := range []uint32{eqAreaA, eqAreaB} {
		m, err := e.k.ReadMem(e.s, area, eqArea)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, m...)
	}
	return out, e.k
}

func TestModelEquivalenceFuzz(t *testing.T) {
	seeds := []int64{1, 7, 42, 1999, 0xF1BE, 31337, 271828, 31415926}
	if testing.Short() {
		seeds = seeds[:3]
	}
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			var want []byte
			var wantCfg string
			for _, cfg := range core.Configurations() {
				got, _ := runSeed(t, cfg, seed)
				if want == nil {
					want, wantCfg = got, cfg.Name()
					continue
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("%s result differs from %s (seed %d)", cfg.Name(), wantCfg, seed)
				}
			}
		})
	}
}

// TestIPCFastPathEquivalence pins the IPC fast path's transparency: the
// direct handoff and register-carried transfers deliberately change
// virtual time (that is the optimisation), but nothing a user program can
// observe may differ with the path on vs off — final memory (message
// payloads and published register results included) and the Table 3
// restart-cause counts — across all five paper configurations ×
// NumCPUs {1,2,4} × both lock models.
func TestIPCFastPathEquivalence(t *testing.T) {
	seeds := []int64{1, 42, 31337}
	if testing.Short() {
		seeds = seeds[:1]
	}
	totalHits := uint64(0)
	for _, base := range core.Configurations() {
		for _, ncpu := range []int{1, 2, 4} {
			for _, lm := range lockModels {
				cfg := base
				cfg.NumCPUs = ncpu
				cfg.LockModel = lm
				t.Run(fmt.Sprintf("%s/cpus=%d/%s", base.Name(), ncpu, lm), func(t *testing.T) {
					for _, seed := range seeds {
						onMem, onK := runSeed(t, cfg, seed)
						off := cfg
						off.DisableIPCFastPath = true
						offMem, offK := runSeed(t, off, seed)
						if !bytes.Equal(onMem, offMem) {
							t.Fatalf("seed %d: observable memory differs with IPC fast path on vs off", seed)
						}
						onR := onK.Metrics.RestartsByCause()
						offR := offK.Metrics.RestartsByCause()
						if onR != offR {
							t.Fatalf("seed %d: Table 3 restart causes differ: on=%v off=%v", seed, onR, offR)
						}
						totalHits += onK.Stats().FastpathHits
						if s := offK.Stats(); s.FastpathHits != 0 {
							t.Fatalf("seed %d: disabled run recorded %d handoffs", seed, s.FastpathHits)
						}
					}
				})
			}
		}
	}
	if totalHits == 0 {
		t.Fatal("no handoff fired anywhere in the matrix; the test is vacuous")
	}
}

// TestFastPathEquivalence pins the tentpole invariant: the simulator fast
// paths (software TLB, decoded-instruction cache, run-to-next-event
// batching, page-run IPC copies) are invisible to virtual time. Every
// configuration must produce bit-identical observable memory, Stats, and
// final clock with the caches on and off.
func TestFastPathEquivalence(t *testing.T) {
	seeds := []int64{1, 42, 31337}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, cfg := range core.Configurations() {
		cfg := cfg
		t.Run(cfg.Name(), func(t *testing.T) {
			for _, seed := range seeds {
				fastMem, fastK := runSeed(t, cfg, seed)
				slow := cfg
				slow.DisableFastPath = true
				slowMem, slowK := runSeed(t, slow, seed)
				if !bytes.Equal(fastMem, slowMem) {
					t.Fatalf("seed %d: observable memory differs with fast paths on vs off", seed)
				}
				if fastK.Clock.Now() != slowK.Clock.Now() {
					t.Fatalf("seed %d: virtual time differs: fast=%d slow=%d",
						seed, fastK.Clock.Now(), slowK.Clock.Now())
				}
				if !reflect.DeepEqual(fastK.Stats(), slowK.Stats()) {
					t.Fatalf("seed %d: Stats differ with fast paths on vs off:\nfast: %+v\nslow: %+v",
						seed, fastK.Stats(), slowK.Stats())
				}
			}
		})
	}
}
