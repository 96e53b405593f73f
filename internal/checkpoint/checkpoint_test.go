package checkpoint_test

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/mmu"
	"repro/internal/obj"
	"repro/internal/prog"
	"repro/internal/sys"
)

const (
	codeBase = 0x0001_0000
	dataBase = 0x0004_0000
	dataLen  = 8 * mem.PageSize

	mtxVA  = dataBase + 0x10
	cndVA  = dataBase + 0x14
	turnVA = dataBase + 0x100
	curVA  = dataBase + 0x104 // shared log cursor (word index)
	logVA  = dataBase + 0x200 // shared log
)

// buildWorkload creates a space with a deterministic two-thread program:
// strict cond-variable alternation appending (1000+round) and (2000+round)
// to a shared log, with periodic sleeps thrown in so captures land inside
// thread_sleep, mutex_lock, and cond_wait at different times.
func buildWorkload(t testing.TB, k *core.Kernel, rounds int) (*obj.Space, []*obj.Thread) {
	t.Helper()
	s := k.NewSpace()
	data := &obj.Region{Header: obj.Header{Type: sys.ObjRegion}, R: mmu.NewRegion(dataLen, true)}
	k.BindFresh(s, data)
	if _, err := k.MapInto(s, data, dataBase, 0, dataLen, mmu.PermRW); err != nil {
		t.Fatal(err)
	}
	for _, h := range []struct {
		va uint32
		ot sys.ObjType
	}{{mtxVA, sys.ObjMutex}, {cndVA, sys.ObjCond}} {
		o, _ := obj.New(h.ot)
		if err := k.Bind(s, h.va, o); err != nil {
			t.Fatal(err)
		}
	}

	b := prog.New(codeBase)
	worker := func(name string, myTurn, nextTurn, tag uint32) {
		b.Label(name).Movi(6, 0).
			Label(name+".round").
			MutexLock(mtxVA).
			Label(name+".wait").
			Movi(4, turnVA).Ld(5, 4, 0).
			Movi(2, myTurn)
		b.Beq(5, 2, name+".go")
		b.CondWait(cndVA, mtxVA).
			Jmp(name+".wait").
			Label(name+".go").
			// log[cur] = tag + round; cur++
			Movi(4, curVA).Ld(5, 4, 0).
			Movi(2, 2).Shl(3, 5, 2).Addi(3, 3, logVA). // &log[cur]
			Addi(5, 5, 1).St(4, 0, 5).
			Movi(2, tag).Add(2, 2, 6).St(3, 0, 2).
			// turn = nextTurn; broadcast; unlock
			Movi(4, turnVA).Movi(5, nextTurn).St(4, 0, 5).
			CondBroadcast(cndVA).
			MutexUnlock(mtxVA).
			ThreadSleepUS(50).
			Addi(6, 6, 1).Movi(5, uint32(rounds)).Blt(6, 5, name+".round").
			Halt()
	}
	worker("wA", 0, 1, 1000)
	worker("wB", 1, 0, 2000)
	img := b.MustAssemble()
	if _, err := k.LoadImage(s, codeBase, img); err != nil {
		t.Fatal(err)
	}
	var threads []*obj.Thread
	for _, label := range []string{"wA", "wB"} {
		th := k.NewThread(s, 10)
		th.Regs.PC = b.Addr(label)
		k.StartThread(th)
		threads = append(threads, th)
	}
	return s, threads
}

// finalLog reads the shared log after completion.
func finalLog(t *testing.T, k *core.Kernel, s *obj.Space, rounds int) []byte {
	t.Helper()
	out, err := k.ReadMem(s, logVA, rounds*2*4)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// runToCompletion runs until both workers exit.
func runToCompletion(t *testing.T, k *core.Kernel, threads []*obj.Thread) {
	t.Helper()
	k.RunFor(20_000_000_000)
	for _, th := range threads {
		if !th.Exited {
			t.Fatalf("worker %d stuck: state=%v pc=%#x", th.ID, th.State, th.Regs.PC)
		}
	}
}

func undisturbedResult(t *testing.T, cfg core.Config, rounds int) []byte {
	k := core.New(cfg)
	s, threads := buildWorkload(t, k, rounds)
	runToCompletion(t, k, threads)
	return finalLog(t, k, s, rounds)
}

// TestCheckpointRestoreCorrectness is the paper's correctness property
// (§4.1): capture at an arbitrary time, destroy, re-create from the
// captured state — the result must be indistinguishable from an
// undisturbed run. Capture points sweep across the run so they land
// inside cond_wait (PC rewritten to mutex_lock), thread_sleep (deadline
// rolled into R2/R3), mutex_lock waits, and plain user code.
func TestCheckpointRestoreCorrectness(t *testing.T) {
	const rounds = 12
	for _, cfg := range core.Configurations() {
		cfg := cfg
		t.Run(cfg.Name(), func(t *testing.T) {
			want := undisturbedResult(t, cfg, rounds)
			for _, cut := range []uint64{
				50_000, 120_000, 300_000, 700_000, 1_500_000,
				3_000_000, 6_000_000, 12_000_000,
			} {
				k1 := core.New(cfg)
				s1, _ := buildWorkload(t, k1, rounds)
				k1.RunFor(cut)

				img, err := checkpoint.Capture(k1, s1)
				if err != nil {
					t.Fatalf("cut %d: capture: %v", cut, err)
				}
				// Destroy the original entirely.
				for _, th := range append([]*obj.Thread(nil), s1.Threads...) {
					k1.DestroyThread(th)
				}

				// Restore onto a fresh kernel (a different instance:
				// this is migration).
				k2 := core.New(cfg)
				s2, threads, err := checkpoint.Restore(k2, img)
				if err != nil {
					t.Fatalf("cut %d: restore: %v", cut, err)
				}
				checkpoint.StartAll(k2, img, threads)
				k2.RunFor(20_000_000_000)
				for _, th := range threads {
					if !th.Exited {
						t.Fatalf("cut %d: restored worker %d stuck: state=%v pc=%#x r=%v",
							cut, th.ID, th.State, th.Regs.PC, th.Regs.R)
					}
				}
				got := finalLog(t, k2, s2, rounds)
				if !bytes.Equal(got, want) {
					t.Fatalf("cut %d: restored result differs\n got %v\nwant %v", cut, got, want)
				}
			}
		})
	}
}

// TestMigrationAcrossExecutionModels captures from one execution model
// and restores into the other — the exported thread state is model-
// independent, since no kernel stack state exists to translate (the
// paper's central claim put to work).
func TestMigrationAcrossExecutionModels(t *testing.T) {
	const rounds = 10
	want := undisturbedResult(t, core.Config{Model: core.ModelProcess}, rounds)

	pairs := []struct{ from, to core.Config }{
		{core.Config{Model: core.ModelProcess, Preempt: core.PreemptFull},
			core.Config{Model: core.ModelInterrupt}},
		{core.Config{Model: core.ModelInterrupt, Preempt: core.PreemptPartial},
			core.Config{Model: core.ModelProcess}},
	}
	for _, pair := range pairs {
		k1 := core.New(pair.from)
		s1, _ := buildWorkload(t, k1, rounds)
		k1.RunFor(800_000)

		k2 := core.New(pair.to)
		s2, threads, err := checkpoint.Migrate(k1, s1, k2)
		if err != nil {
			t.Fatal(err)
		}
		if !s1.Dead {
			t.Fatal("source space not dead after migration")
		}
		k2.RunFor(20_000_000_000)
		for _, th := range threads {
			if !th.Exited {
				t.Fatalf("%s->%s: migrated worker stuck: state=%v pc=%#x",
					pair.from.Name(), pair.to.Name(), th.State, th.Regs.PC)
			}
		}
		got := finalLog(t, k2, s2, rounds)
		if !bytes.Equal(got, want) {
			t.Fatalf("%s->%s: migrated result differs", pair.from.Name(), pair.to.Name())
		}
	}
}

// TestCaptureIsPrompt verifies the promptness property: capture completes
// immediately (without running the workload further) even while threads
// are blocked inside long and multi-stage syscalls.
func TestCaptureIsPrompt(t *testing.T) {
	k := core.New(core.Config{Model: core.ModelProcess})
	s, _ := buildWorkload(t, k, 8)
	k.RunFor(200_000)
	before := k.Clock.Now()
	if _, err := checkpoint.Capture(k, s); err != nil {
		t.Fatal(err)
	}
	if k.Clock.Now() != before {
		t.Fatalf("capture consumed %d guest cycles; promptness means it needs none",
			k.Clock.Now()-before)
	}
}

// TestTwinCapturesIdentical: an image is a function of kernel state, not
// of Go's map order — twin kernels captured at the same cut give equal
// images, so a restore creates and starts their threads in one order.
func TestTwinCapturesIdentical(t *testing.T) {
	var first checkpoint.Image
	for i := 0; i < 20; i++ {
		k := core.New(core.Config{Model: core.ModelInterrupt})
		s, _ := buildWorkload(t, k, 8)
		k.RunFor(400_000)
		img, err := checkpoint.Capture(k, s)
		if err != nil {
			t.Fatal(err)
		}
		got := checkpoint.Image{Threads: img.Threads, Objects: img.Objects,
			Frames: img.Frames, Regions: img.Regions, Mappings: img.Mappings}
		if i == 0 {
			first = got
		} else if !reflect.DeepEqual(got, first) {
			t.Fatalf("capture %d differs from capture 0:\n threads %+v\nobjects %+v\n   want %+v\n        %+v",
				i, got.Threads, got.Objects, first.Threads, first.Objects)
		}
	}
}

// TestRestoredBlockedThreadStateNamesEntrypoint: a thread captured while
// blocked restores with its PC at a syscall entrypoint — the explicit
// continuation.
func TestRestoredBlockedThreadStateNamesEntrypoint(t *testing.T) {
	k := core.New(core.Config{Model: core.ModelInterrupt})
	s, _ := buildWorkload(t, k, 8)
	k.RunFor(400_000)
	img, err := checkpoint.Capture(k, s)
	if err != nil {
		t.Fatal(err)
	}
	sawEntry := false
	for _, tr := range img.Threads {
		pc := tr.State[core.TSPc]
		if n := sysNumOfEntry(pc); n >= 0 {
			sawEntry = true
			if _, ok := sys.Lookup(n); !ok {
				t.Fatalf("captured PC %#x names invalid syscall %d", pc, n)
			}
		}
	}
	if !sawEntry {
		t.Skip("no thread happened to be in-kernel at this cut (timing)")
	}
}

func sysNumOfEntry(pc uint32) int {
	const base, size = 0xFFF0_0000, 8
	if pc < base || pc >= base+256*size || (pc-base)%size != 0 {
		return -1
	}
	return int(pc-base) / size
}
