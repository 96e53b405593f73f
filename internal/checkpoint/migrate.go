// Pre-copy live migration: move a space between kernels while it keeps
// running, using delta snapshots to shrink each round until only a
// small residual must be stop-and-copied.
//
// The loop is the classic one (Clark et al. adapted to simulated time):
// a warm baseline snapshot is taken without stopping the space, its
// transfer is modeled as cycles during which the source keeps executing
// (RunFor on the source kernel), then successive delta rounds capture
// only what the previous round's transfer window dirtied. When a round
// is small enough — or the round budget is spent — the space is stopped
// and the residual delta plus thread state crosses during downtime.
//
// Downtime is reported in simulated cycles, separately from total
// migration time. It is a model of the transfer link (XferCyclesPerPage
// etc.), not time burned on either kernel's clock: the source is
// destroyed at the stop point and the destination resumes from zero
// perturbation, exactly like the instantaneous Migrate. What pre-copy
// buys is that the *source* kept running through every warm round —
// RunFor advanced it through the modeled transfer — so the work lost to
// the freeze is the residual's downtime, not the full image's.
package checkpoint

import (
	"repro/internal/core"
	"repro/internal/obj"
)

// Transfer-model defaults: a page crossing the wire costs
// DefaultXferCyclesPerPage simulated cycles (4 KiB at ~390 MB/s on the
// 200 MHz clock — late-90s gigabit-class interconnect), a thread's
// exported state a flat DefaultXferCyclesPerThread.
const (
	DefaultXferCyclesPerPage   = 2048
	DefaultXferCyclesPerThread = 256
	DefaultPrecopyRounds       = 3
	DefaultStopEarlyPages      = 8
)

// MigrateOptions tunes the pre-copy loop. The zero value selects the
// defaults above.
type MigrateOptions struct {
	Rounds              int    // max warm delta rounds after the baseline
	XferCyclesPerPage   uint64 // modeled cycles to ship one frame
	XferCyclesPerThread uint64 // modeled cycles to ship one thread state
	StopEarlyPages      int    // stop-and-copy once a warm round leaves ≤ this many dirty frames
}

func (o MigrateOptions) withDefaults() MigrateOptions {
	if o.Rounds == 0 {
		o.Rounds = DefaultPrecopyRounds
	}
	if o.XferCyclesPerPage == 0 {
		o.XferCyclesPerPage = DefaultXferCyclesPerPage
	}
	if o.XferCyclesPerThread == 0 {
		o.XferCyclesPerThread = DefaultXferCyclesPerThread
	}
	if o.StopEarlyPages == 0 {
		o.StopEarlyPages = DefaultStopEarlyPages
	}
	return o
}

// MigrateRound describes one transfer round of a pre-copy migration.
type MigrateRound struct {
	Frames int    // frames shipped this round
	Bytes  int    // payload bytes shipped this round
	Cycles uint64 // modeled transfer cycles (source running, except the final round)
	Final  bool   // the stop-and-copy residual
}

// MigrateReport is the accounting of one pre-copy migration.
type MigrateReport struct {
	Rounds         []MigrateRound // [0] is the warm baseline
	TotalCycles    uint64         // all rounds, warm and final
	DowntimeCycles uint64         // stop-to-resume: residual frames + thread states
	Threads        int            // thread states shipped during downtime
	FullFrames     int            // resident frames at the stop point (what stop-and-copy ships)
	FullBytes      int            // their payload (stop-and-copy's downtime numerator)
}

// StopAndCopyDowntime models what a non-incremental Migrate of the same
// space would have frozen it for under the same transfer model — the
// baseline DowntimeCycles is compared against.
func (rep *MigrateReport) StopAndCopyDowntime(opt MigrateOptions) uint64 {
	opt = opt.withDefaults()
	return uint64(rep.FullFrames)*opt.XferCyclesPerPage +
		uint64(rep.Threads)*opt.XferCyclesPerThread
}

// MigratePrecopy live-migrates space s from k1 to k2. The source keeps
// running (k1.RunFor models each warm transfer) until the residual
// dirty set is small, then the space is stopped, the residual shipped,
// and the space restored and restarted on k2. Returns the restored
// space, its threads, and the transfer report.
func MigratePrecopy(k1 *core.Kernel, s *obj.Space, k2 *core.Kernel, opt MigrateOptions) (*obj.Space, []*obj.Thread, *MigrateReport, error) {
	opt = opt.withDefaults()
	rep := &MigrateReport{}

	// Warm baseline: full memory snapshot, space running.
	parent, err := SnapshotMemory(k1, s)
	if err != nil {
		return nil, nil, nil, err
	}
	cost := uint64(len(parent.Frames)) * opt.XferCyclesPerPage
	rep.Rounds = append(rep.Rounds, MigrateRound{
		Frames: len(parent.Frames), Bytes: parent.FrameBytes(), Cycles: cost,
	})
	rep.TotalCycles += cost
	k1.RunFor(cost)

	// Warm delta rounds: each ships what the previous transfer window
	// dirtied; each shrinks if the writable working set is smaller than
	// what a full round can ship.
	for i := 0; i < opt.Rounds; i++ {
		d, img, err := SnapshotMemoryDelta(k1, s, parent)
		if err != nil {
			return nil, nil, nil, err
		}
		parent = img
		cost = uint64(len(d.Frames)) * opt.XferCyclesPerPage
		rep.Rounds = append(rep.Rounds, MigrateRound{
			Frames: len(d.Frames), Bytes: d.FrameBytes(), Cycles: cost,
		})
		rep.TotalCycles += cost
		if len(d.Frames) <= opt.StopEarlyPages {
			break // converged: the residual is cheap, stop now
		}
		k1.RunFor(cost)
	}

	// Stop-and-copy the residual: threads freeze here; everything the
	// last warm round missed crosses during downtime.
	d, finalImg, err := CaptureDelta(k1, s, parent)
	if err != nil {
		return nil, nil, nil, err
	}
	down := uint64(len(d.Frames))*opt.XferCyclesPerPage +
		uint64(len(finalImg.Threads))*opt.XferCyclesPerThread
	rep.Rounds = append(rep.Rounds, MigrateRound{
		Frames: len(d.Frames), Bytes: d.FrameBytes(), Cycles: down, Final: true,
	})
	rep.TotalCycles += down
	rep.DowntimeCycles = down
	rep.Threads = len(finalImg.Threads)
	rep.FullFrames = len(finalImg.Frames)
	rep.FullBytes = finalImg.FrameBytes()
	if k1.Metrics != nil {
		k1.Metrics.CkptDowntimeCycles.Add(down)
	}

	for _, t := range append([]*obj.Thread(nil), s.Threads...) {
		k1.DestroyThread(t)
	}
	s.Dead = true

	s2, threads, err := Restore(k2, finalImg)
	if err != nil {
		return nil, nil, nil, err
	}
	StartAll(k2, finalImg, threads)
	return s2, threads, rep, nil
}
