package experiments

import (
	"fmt"

	"repro/internal/checkpoint"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/mmu"
	"repro/internal/obj"
	"repro/internal/prog"
	"repro/internal/stats"
)

// The pre-copy migration sweep: how far incremental checkpointing pulls
// migration downtime below stop-and-copy, as a function of resident set
// size, write rate (hot pages rewritten per scheduling period), and the
// pre-copy round budget. The mechanism under test is the dirty-page
// tracker (internal/mmu) feeding delta snapshots (internal/checkpoint):
// stop-and-copy downtime is O(resident memory); pre-copy downtime is
// O(pages dirtied during one transfer window) — the writable working
// set — plus thread state.

// MigrateResult is one (working set, write rate, rounds) cell.
type MigrateResult struct {
	WorkingSet uint32 // resident bytes
	HotPages   int    // pages rewritten per 20 µs period (write rate)
	Rounds     int    // pre-copy round budget

	BaselineFrames int     // frames shipped by the warm baseline (≈ resident set)
	ResidualFrames int     // frames shipped during downtime
	DowntimeCycles uint64  // pre-copy stop-to-resume
	StopCopyCycles uint64  // modeled stop-and-copy downtime of the same space
	Ratio          float64 // DowntimeCycles / StopCopyCycles
	TotalCycles    uint64  // whole migration, warm rounds included
}

const migWSBase = 0x0100_0000

// NewMigrateWriter builds the sweep's subject on k: a space with ws
// resident bytes and one thread that rewrites the first hot pages every
// 20 µs period, already started.
func NewMigrateWriter(k *core.Kernel, ws uint32, hot int) (*obj.Space, error) {
	s := k.NewSpace()
	reg, err := k.NewBoundRegion(s, core.KObjBase+0x910, ws, true)
	if err != nil {
		return nil, err
	}
	if _, err := k.MapInto(s, reg, migWSBase, 0, ws, mmu.PermRW); err != nil {
		return nil, err
	}
	// Touch every page: the space's residency is the full working set.
	if err := k.WriteMem(s, migWSBase, make([]byte, ws)); err != nil {
		return nil, err
	}

	// The writer: each 20 µs period rewrites the first hot pages.
	b := prog.New(scCode)
	b.Label("w").Movi(6, 1).Label("w.loop")
	for p := 0; p < hot; p++ {
		b.Movi(4, migWSBase+uint32(p)*mem.PageSize).St(4, 0, 6)
	}
	b.ThreadSleepUS(20).Addi(6, 6, 1).Jmp("w.loop")
	img, err := b.Assemble()
	if err != nil {
		return nil, err
	}
	if _, err := k.LoadImage(s, scCode, img); err != nil {
		return nil, err
	}
	th := k.NewThread(s, 10)
	th.Regs.PC = b.Addr("w")
	k.StartThread(th)
	return s, nil
}

// MigrateCell migrates one writer space and reports the accounting.
func MigrateCell(ws uint32, hot, rounds int) (MigrateResult, error) {
	cfg := core.Config{Model: core.ModelProcess}
	k1 := core.New(cfg)
	s, err := NewMigrateWriter(k1, ws, hot)
	if err != nil {
		return MigrateResult{}, err
	}
	k1.RunFor(100 * clock.CyclesPerMicrosecond)

	k2 := core.New(cfg)
	opt := checkpoint.MigrateOptions{Rounds: rounds}
	_, threads, rep, err := checkpoint.MigratePrecopy(k1, s, k2, opt)
	if err != nil {
		return MigrateResult{}, err
	}
	// The migrated writer must still be running over there.
	k2.RunFor(100 * clock.CyclesPerMicrosecond)
	for _, t := range threads {
		if t.Exited {
			return MigrateResult{}, fmt.Errorf("migrate %d/%d/%d: writer died on the destination", ws, hot, rounds)
		}
	}

	sc := rep.StopAndCopyDowntime(opt)
	res := rep.Rounds[len(rep.Rounds)-1]
	return MigrateResult{
		WorkingSet: ws, HotPages: hot, Rounds: rounds,
		BaselineFrames: rep.Rounds[0].Frames,
		ResidualFrames: res.Frames,
		DowntimeCycles: rep.DowntimeCycles,
		StopCopyCycles: sc,
		Ratio:          float64(rep.DowntimeCycles) / float64(sc),
		TotalCycles:    rep.TotalCycles,
	}, nil
}

// Migrate runs the sweep. fast trims it to the CI smoke shape.
func Migrate(fast bool) ([]MigrateResult, error) {
	wss := []uint32{1 << 20, 4 << 20}
	hots := []int{4, 32, 128}
	roundsSet := []int{1, 3, 5}
	if fast {
		wss = []uint32{1 << 20}
		hots = []int{4, 32}
		roundsSet = []int{3}
	}
	var out []MigrateResult
	for _, ws := range wss {
		for _, hot := range hots {
			for _, rounds := range roundsSet {
				r, err := MigrateCell(ws, hot, rounds)
				if err != nil {
					return nil, err
				}
				out = append(out, r)
			}
		}
	}
	return out, nil
}

// MigrateRender formats the sweep.
func MigrateRender(rows []MigrateResult) *stats.Table {
	t := stats.NewTable("Pre-copy live migration: downtime vs stop-and-copy (simulated cycles)",
		"resident", "hot/20µs", "rounds", "baseline", "residual", "downtime", "stop&copy", "ratio", "total")
	for _, r := range rows {
		t.Row(fmtBytes(r.WorkingSet), r.HotPages, r.Rounds,
			r.BaselineFrames, r.ResidualFrames,
			r.DowntimeCycles, r.StopCopyCycles,
			fmt.Sprintf("%.3f", r.Ratio), r.TotalCycles)
	}
	return t
}
