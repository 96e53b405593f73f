package checkpoint_test

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/equiv"
	"repro/internal/mem"
	"repro/internal/mmu"
	"repro/internal/obj"
	"repro/internal/prog"
	"repro/internal/sys"
)

// deltaChain runs the workload with three snapshot points — a warm
// memory baseline, a warm delta, and a final full-stop delta capture —
// and returns the materialized final image plus the raw deltas.
func deltaChain(t *testing.T, cfg core.Config, rounds int, cutA, cutB, cutC uint64) (*checkpoint.Image, *checkpoint.Image, *checkpoint.DeltaImage, *checkpoint.DeltaImage) {
	t.Helper()
	k := core.New(cfg)
	s, _ := buildWorkload(t, k, rounds)
	k.RunFor(cutA)
	base, err := checkpoint.SnapshotMemory(k, s)
	if err != nil {
		t.Fatal(err)
	}
	k.RunFor(cutB - cutA)
	d1, img1, err := checkpoint.SnapshotMemoryDelta(k, s, base)
	if err != nil {
		t.Fatal(err)
	}
	k.RunFor(cutC - cutB)
	d2, final, err := checkpoint.CaptureDelta(k, s, img1)
	if err != nil {
		t.Fatal(err)
	}
	return base, final, d1, d2
}

// TestDeltaEquivalence pins the incremental path bit-identical to the
// full path, the way every fast path in this repo is pinned: a base +
// delta chain taken while the space runs must materialize exactly the
// image a plain Capture takes at the same point — same page bytes, same
// COW sharing structure — and the restored runs must be byte- and
// stats-identical. Swept across the five paper configurations crossed
// with both lock models (big at 1 and 2 CPUs, fine at 4).
func TestDeltaEquivalence(t *testing.T) {
	const rounds = 10
	const cutA, cutB, cutC = 250_000, 600_000, 1_100_000
	locks := []struct {
		lm   core.LockModel
		cpus int
	}{
		{core.LockBig, 1},
		{core.LockBig, 2},
		{core.LockFine, 4},
	}
	for _, base := range core.Configurations() {
		for _, l := range locks {
			cfg := base
			cfg.LockModel = l.lm
			cfg.NumCPUs = l.cpus
			t.Run(fmt.Sprintf("%s/%s/%dcpu", cfg.Name(), l.lm, l.cpus), func(t *testing.T) {
				// Twin kernel, identical run, full capture at the same cut
				// (determinism makes the twin bit-identical; a single
				// kernel cannot take both captures because Capture stops
				// the space).
				kRef := core.New(cfg)
				sRef, _ := buildWorkload(t, kRef, rounds)
				kRef.RunFor(cutA)
				kRef.RunFor(cutB - cutA)
				kRef.RunFor(cutC - cutB)
				imgFull, err := checkpoint.Capture(kRef, sRef)
				if err != nil {
					t.Fatal(err)
				}

				baseImg, imgDelta, d1, d2 := deltaChain(t, cfg, rounds, cutA, cutB, cutC)
				if err := equiv.ImageMemEqual(imgFull, imgDelta); err != nil {
					t.Fatalf("base+delta chain diverges from full capture: %v", err)
				}

				// The public Apply fold over the same chain must reproduce
				// the materialized image too (the migration receiver's path).
				alt1, err := d1.Apply(baseImg)
				if err != nil {
					t.Fatal(err)
				}
				alt2, err := d2.Apply(alt1)
				if err != nil {
					t.Fatal(err)
				}
				if err := equiv.ImageMemEqual(imgFull, alt2); err != nil {
					t.Fatalf("Apply-fold replay diverges from full capture: %v", err)
				}

				// Restore both and finish: identical logs, final memory,
				// kernel stats and clocks.
				run := func(img *checkpoint.Image) *equiv.Digest {
					k := core.New(cfg)
					s, threads, err := checkpoint.Restore(k, img)
					if err != nil {
						t.Fatal(err)
					}
					checkpoint.StartAll(k, img, threads)
					k.RunFor(20_000_000_000)
					for _, th := range threads {
						if !th.Exited {
							t.Fatalf("restored worker stuck: state=%v pc=%#x", th.State, th.Regs.PC)
						}
					}
					d := equiv.Take(t, k)
					d.Mem = []equiv.Range{equiv.Read(t, k, s, "data", dataBase, int(dataLen))}
					return d
				}
				if diff := equiv.Diff(run(imgFull), run(imgDelta), equiv.Identical); diff != "" {
					t.Fatalf("restored full vs delta chain: %s", diff)
				}
			})
		}
	}
}

// TestDeltaChainRestoreAcrossCPUAndLockModel captures a base + two-delta
// chain on a 4-CPU fine-locked kernel and restores it on a 1-CPU big-
// lock kernel: exported state is CPU-count- and lock-model-independent,
// and HomeCPU folds mod the target's CPU count.
func TestDeltaChainRestoreAcrossCPUAndLockModel(t *testing.T) {
	const rounds = 10
	want := undisturbedResult(t, core.Config{Model: core.ModelProcess}, rounds)

	cfg := core.Config{
		Model: core.ModelInterrupt, NumCPUs: 4, LockModel: core.LockFine,
	}
	_, final, _, _ := deltaChain(t, cfg, rounds, 200_000, 500_000, 900_000)

	k2 := core.New(core.Config{Model: core.ModelProcess, NumCPUs: 1, LockModel: core.LockBig})
	s2, threads, err := checkpoint.Restore(k2, final)
	if err != nil {
		t.Fatal(err)
	}
	for _, th := range threads {
		if th.HomeCPU != 0 {
			t.Fatalf("restored HomeCPU %d on a 1-CPU kernel", th.HomeCPU)
		}
	}
	checkpoint.StartAll(k2, final, threads)
	k2.RunFor(20_000_000_000)
	for _, th := range threads {
		if !th.Exited {
			t.Fatalf("restored worker stuck: state=%v pc=%#x", th.State, th.Regs.PC)
		}
	}
	if got := finalLog(t, k2, s2, rounds); !bytes.Equal(got, want) {
		t.Fatalf("4cpu-fine → 1cpu-big delta-chain restore differs\n got %v\nwant %v", got, want)
	}
}

// TestMigratePrecopyParallelHost runs the whole pre-copy loop — warm
// snapshots and delta captures interleaved with RunFor on a live
// kernel — under real host parallelism on both ends (4 CPUs, fine
// locks), so a race between the capture walk and executing CPUs fails
// under -race with a pointed test. The migrated run must still finish
// with the undisturbed result.
func TestMigratePrecopyParallelHost(t *testing.T) {
	const rounds = 12
	cfg := core.Config{
		Model: core.ModelInterrupt, Preempt: core.PreemptPartial,
		NumCPUs: 4, LockModel: core.LockFine, ParallelHost: true,
	}
	want := undisturbedResult(t, cfg, rounds)

	k1 := core.New(cfg)
	s1, _ := buildWorkload(t, k1, rounds)
	k1.RunFor(100_000)

	k2 := core.New(cfg)
	s2, threads, rep, err := checkpoint.MigratePrecopy(k1, s1, k2, checkpoint.MigrateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	k2.RunFor(20_000_000_000)
	for _, th := range threads {
		if !th.Exited {
			t.Fatalf("migrated worker stuck: state=%v pc=%#x", th.State, th.Regs.PC)
		}
	}
	if got := finalLog(t, k2, s2, rounds); !bytes.Equal(got, want) {
		t.Fatalf("parallel-host pre-copy migrated result differs\n got %v\nwant %v", got, want)
	}
	if sc := rep.StopAndCopyDowntime(checkpoint.MigrateOptions{}); rep.DowntimeCycles >= sc {
		t.Fatalf("pre-copy downtime %d ≥ stop-and-copy downtime %d", rep.DowntimeCycles, sc)
	}
}

const (
	bigBase  = 0x0010_0000
	bigLen   = 4 << 20 // the mostly-idle 4 MiB working set
	hotPages = 4
)

// buildIdleWriter creates a space with a fully resident 4 MiB region and
// one thread that keeps rewriting a small hot set of pages — the
// pre-copy sweet spot: a writable working set far smaller than residency.
func buildIdleWriter(t *testing.T, k *core.Kernel) (*obj.Space, *obj.Thread) {
	t.Helper()
	return buildWriter(t, k, hotPages)
}

// buildWriter is buildIdleWriter with the hot set's size as a parameter.
func buildWriter(t *testing.T, k *core.Kernel, hot uint32) (*obj.Space, *obj.Thread) {
	t.Helper()
	s := k.NewSpace()
	big := &obj.Region{Header: obj.Header{Type: sys.ObjRegion}, R: mmu.NewRegion(bigLen, true)}
	k.BindFresh(s, big)
	if _, err := k.MapInto(s, big, bigBase, 0, bigLen, mmu.PermRW); err != nil {
		t.Fatal(err)
	}
	// Touch every page so the full snapshot really is O(4 MiB).
	if err := k.WriteMem(s, bigBase, make([]byte, bigLen)); err != nil {
		t.Fatal(err)
	}

	b := prog.New(codeBase)
	b.Label("w").Movi(6, 1).Label("w.loop")
	for p := uint32(0); p < hot; p++ {
		b.Movi(4, bigBase+p*mem.PageSize).St(4, 0, 6)
	}
	b.ThreadSleepUS(50).Addi(6, 6, 1).Jmp("w.loop")
	img := b.MustAssemble()
	if _, err := k.LoadImage(s, codeBase, img); err != nil {
		t.Fatal(err)
	}
	th := k.NewThread(s, 10)
	th.Regs.PC = b.Addr("w")
	k.StartThread(th)
	return s, th
}

// TestMigrationSpeedup pins the tentpole's perf claim: on a mostly-idle
// 4 MiB space, each incremental round captures ≥5× fewer frame-bytes
// than a full snapshot (in practice it is two orders of magnitude). Also
// checks the ckpt.* metrics move.
func TestMigrationSpeedup(t *testing.T) {
	k := core.New(core.Config{Model: core.ModelProcess})
	k.EnableMetrics()
	s, _ := buildIdleWriter(t, k)
	k.RunFor(200_000)

	full, err := checkpoint.SnapshotMemory(k, s)
	if err != nil {
		t.Fatal(err)
	}
	fullBytes := full.FrameBytes()
	if fullBytes < bigLen {
		t.Fatalf("full snapshot holds %d bytes; the 4 MiB region alone is %d", fullBytes, bigLen)
	}

	parent := full
	for round := 1; round <= 3; round++ {
		k.RunFor(300_000)
		d, img, err := checkpoint.SnapshotMemoryDelta(k, s, parent)
		if err != nil {
			t.Fatal(err)
		}
		parent = img
		db := d.FrameBytes()
		if db == 0 {
			t.Fatalf("round %d: hot writer ran but the delta is empty", round)
		}
		if fullBytes < 5*db {
			t.Fatalf("round %d: delta %d bytes vs full %d — under the pinned 5× reduction",
				round, db, fullBytes)
		}
		if d.CleanFrames == 0 {
			t.Fatalf("round %d: no frame was parent-referenced", round)
		}
	}

	m := k.Metrics
	if m.CkptSnapshots.Value() == 0 || m.CkptDeltaSnapshots.Value() != 3 {
		t.Fatalf("ckpt snapshot counters: full=%d delta=%d", m.CkptSnapshots.Value(), m.CkptDeltaSnapshots.Value())
	}
	if m.CkptFramesClean.Value() <= m.CkptFramesCaptured.Value() {
		t.Fatalf("mostly-idle space captured more frames (%d) than it skipped (%d)",
			m.CkptFramesCaptured.Value(), m.CkptFramesClean.Value())
	}
}

// TestMigratePrecopy migrates the alternating-worker space mid-run with
// the pre-copy loop and checks (a) the restored run finishes with the
// undisturbed result, (b) downtime covers only the residual — strictly
// less than what stop-and-copy would have frozen the space for.
func TestMigratePrecopy(t *testing.T) {
	const rounds = 12
	cfg := core.Config{Model: core.ModelProcess}
	want := undisturbedResult(t, cfg, rounds)

	k1 := core.New(cfg)
	k1.EnableMetrics()
	s1, _ := buildWorkload(t, k1, rounds)
	k1.RunFor(100_000)
	live := 0
	for _, th := range s1.Threads {
		if !th.Exited {
			live++
		}
	}
	if live == 0 {
		t.Fatal("workload finished before the migration point; nothing in flight to pre-copy")
	}

	k2 := core.New(cfg)
	s2, threads, rep, err := checkpoint.MigratePrecopy(k1, s1, k2, checkpoint.MigrateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !s1.Dead {
		t.Fatal("source space survived the migration")
	}
	k2.RunFor(20_000_000_000)
	for _, th := range threads {
		if !th.Exited {
			t.Fatalf("migrated worker stuck: state=%v pc=%#x", th.State, th.Regs.PC)
		}
	}
	if got := finalLog(t, k2, s2, rounds); !bytes.Equal(got, want) {
		t.Fatalf("pre-copy migrated result differs\n got %v\nwant %v", got, want)
	}

	if len(rep.Rounds) < 2 || !rep.Rounds[len(rep.Rounds)-1].Final {
		t.Fatalf("malformed report rounds: %+v", rep.Rounds)
	}
	sc := rep.StopAndCopyDowntime(checkpoint.MigrateOptions{})
	if rep.DowntimeCycles >= sc {
		t.Fatalf("pre-copy downtime %d ≥ stop-and-copy downtime %d", rep.DowntimeCycles, sc)
	}
	if rep.DowntimeCycles == 0 || rep.TotalCycles < rep.DowntimeCycles {
		t.Fatalf("inconsistent report: total=%d downtime=%d", rep.TotalCycles, rep.DowntimeCycles)
	}
	if got := k1.Metrics.CkptDowntimeCycles.Value(); got != rep.DowntimeCycles {
		t.Fatalf("ckpt.migrate.downtime_cycles=%d, report says %d", got, rep.DowntimeCycles)
	}
}
