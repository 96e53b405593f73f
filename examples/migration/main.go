// Migration: move a running process between two kernel instances built
// with different execution models — from a fully-preemptible process-model
// kernel to an interrupt-model kernel — mid-computation. Because the
// atomic API keeps every continuation in the explicit user register
// state, there is no kernel-stack state to translate between models.
//
// The move uses the pre-copy loop: warm snapshots ship the process's
// memory while it keeps running (the first full, the rest only what the
// dirty tracker saw change), and the process is frozen only for the
// final residual. The example prints the per-round accounting and the
// downtime against what a stop-and-copy freeze would have cost.
//
//	go run ./examples/migration
package main

import (
	"fmt"
	"log"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/mmu"
	"repro/internal/obj"
	"repro/internal/prog"
	"repro/internal/sys"
)

const (
	codeBase = 0x0001_0000
	dataBase = 0x0004_0000
	sumVA    = dataBase + 0x100
	bulkBase = 0x0020_0000
	bulkLen  = 1 << 20 // resident but idle: what pre-copy ships warm
	n        = 2_000_000
)

func main() {
	// Source kernel: process model, fully preemptible.
	k1 := core.New(core.Config{Model: core.ModelProcess, Preempt: core.PreemptFull})
	s1 := k1.NewSpace()
	data := &obj.Region{Header: obj.Header{Type: sys.ObjRegion}, R: mmu.NewRegion(0x10000, true)}
	k1.BindFresh(s1, data)
	if _, err := k1.MapInto(s1, data, dataBase, 0, 0x10000, mmu.PermRW); err != nil {
		log.Fatal(err)
	}
	// A fully resident 1 MiB buffer the guest never rewrites: stop-and-copy
	// would freeze the process for all of it, pre-copy ships it warm.
	bulk := &obj.Region{Header: obj.Header{Type: sys.ObjRegion}, R: mmu.NewRegion(bulkLen, true)}
	k1.BindFresh(s1, bulk)
	if _, err := k1.MapInto(s1, bulk, bulkBase, 0, bulkLen, mmu.PermRW); err != nil {
		log.Fatal(err)
	}
	if err := k1.Populate(s1, bulkBase, bulkLen); err != nil {
		log.Fatal(err)
	}

	// The guest sums 1..n, publishing the running sum as it goes.
	b := prog.New(codeBase)
	b.Movi(6, 0).Movi(3, 0).
		Label("loop").
		Addi(6, 6, 1).
		Add(3, 3, 6).
		Movi(4, sumVA).St(4, 0, 3).
		Movi(5, n).Blt(6, 5, "loop").
		Halt()
	th, err := k1.SpawnProgram(s1, codeBase, b.MustAssemble(), 10)
	if err != nil {
		log.Fatal(err)
	}
	_ = th

	// Run roughly half-way on the source kernel.
	k1.RunFor(150_000)
	half, _ := k1.ReadMem(s1, sumVA, 4)
	fmt.Printf("source kernel  (%s): partial sum after 0.75 ms = %d\n",
		k1.Config().Name(), le32(half))

	// Pre-copy migrate to an interrupt-model kernel: the sum keeps
	// advancing on the source through every warm round.
	k2 := core.New(core.Config{Model: core.ModelInterrupt, Preempt: core.PreemptPartial})
	opt := checkpoint.MigrateOptions{}
	s2, threads, rep, err := checkpoint.MigratePrecopy(k1, s1, k2, opt)
	if err != nil {
		log.Fatal(err)
	}
	for i, r := range rep.Rounds {
		kind := "warm delta"
		switch {
		case i == 0:
			kind = "warm full "
		case r.Final:
			kind = "stop-copy "
		}
		fmt.Printf("  round %d %s: %4d frames, %7d bytes, %7d cycles\n",
			i, kind, r.Frames, r.Bytes, r.Cycles)
	}
	fmt.Printf("migrated %d thread(s) to %s; source space dead: %v\n",
		len(threads), k2.Config().Name(), s1.Dead)
	sc := rep.StopAndCopyDowntime(opt)
	fmt.Printf("downtime: %d cycles frozen vs %d for stop-and-copy (%.1f%%)\n",
		rep.DowntimeCycles, sc, 100*float64(rep.DowntimeCycles)/float64(sc))

	k2.Run()
	out, _ := k2.ReadMem(s2, sumVA, 4)
	// The guest's 32-bit adds wrap, so compare mod 2^32.
	want := uint32(uint64(n) * uint64(n+1) / 2 & 0xFFFF_FFFF)
	fmt.Printf("target kernel  (%s): final sum = %d (want %d)\n",
		k2.Config().Name(), le32(out), want)
	if le32(out) == want {
		fmt.Println("computation finished correctly on the other execution model")
	}
}

func le32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}
