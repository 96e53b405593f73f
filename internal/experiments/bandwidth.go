package experiments

import (
	"fmt"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/mmu"
	"repro/internal/prog"
	"repro/internal/stats"
)

// The bulk-transfer bandwidth sweep behind the zero-copy path: a client
// repeatedly sends a page-aligned message to a sink server and the
// simulated bandwidth (payload bytes over virtual time) is recorded for
// three kernels — the full one (zero-copy frame sharing plus the IPC fast
// path), the copying kernel (Config.DisableZeroCopy), and the PR 3-era
// baseline with the direct-handoff fast path off as well. Above
// ZeroCopyMinPages the zero-copy kernel moves each page for CycPageShare
// instead of PageWords·CycCopyWord, so bandwidth at 64 KiB should improve
// by well over 4× while the copying kernels' numbers stay put.

// BandwidthModes are the three kernels the sweep compares.
var BandwidthModes = []string{"zerocopy", "copy", "fastpath-off"}

// BandwidthResult is one (message size, kernel mode, CPU/lock shape)
// measurement.
type BandwidthResult struct {
	Bytes     uint32 // message size
	Mode      string // one of BandwidthModes
	NumCPUs   int
	LockModel string
	MBps      float64 // simulated MB/s (payload bytes / virtual time)
	Speedup   float64 // vs the "copy" mode of the same shape (1.0 for copy)
	Shares    uint64  // pages moved by frame sharing
	Fallbacks uint64
}

// bandwidthIters is how many times each message is sent; the first send
// soft-faults the demand-zero buffers into existence (a few thousand
// cycles per page, identical in every mode), the rest measure the steady
// state, so the iteration count has to be high enough to amortize that
// one-time cost below the per-transfer signal.
const bandwidthIters = 32

// bwSizes is the sweep: 4 KiB (below ZeroCopyMinPages, so the zero-copy
// kernel falls back to the word loop) up to 1 MiB.
var bwSizes = []uint32{4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20}

const (
	bwSBase = 0x0100_0000 // client send window
	bwRBase = 0x0200_0000 // sink receive window
)

// BandwidthCell measures one cell of the sweep.
func BandwidthCell(size uint32, mode string, ncpu int, lm core.LockModel) (BandwidthResult, error) {
	cfg := core.Config{Model: core.ModelProcess, NumCPUs: ncpu, LockModel: lm}
	switch mode {
	case "zerocopy":
	case "copy":
		cfg.DisableZeroCopy = true
	case "fastpath-off":
		cfg.DisableZeroCopy = true
		cfg.DisableIPCFastPath = true
	default:
		return BandwidthResult{}, fmt.Errorf("bandwidth: unknown mode %q", mode)
	}
	k := core.New(cfg)
	s := k.NewSpace()
	if err := bindNullRPC(k, s); err != nil {
		return BandwidthResult{}, err
	}
	words := size / 4
	sreg, err := k.NewBoundRegion(s, core.KObjBase+0x910, size, true)
	if err != nil {
		return BandwidthResult{}, err
	}
	if _, err := k.MapInto(s, sreg, bwSBase, 0, size, mmu.PermRW); err != nil {
		return BandwidthResult{}, err
	}
	rreg, err := k.NewBoundRegion(s, core.KObjBase+0x914, size+mem.PageSize, true)
	if err != nil {
		return BandwidthResult{}, err
	}
	if _, err := k.MapInto(s, rreg, bwRBase, 0, size+mem.PageSize, mmu.PermRW); err != nil {
		return BandwidthResult{}, err
	}

	// One-way stream, the shape of flukeperf's big transfers: each send
	// rendezvouses with a buffer-full receive of exactly the same count,
	// so completion of the send means the data arrived — no reply leg.
	b := prog.New(scCode)
	b.Label("cli").
		Movi(6, 0).Label("cli.loop").
		IPCClientConnectSend(bwSBase, words, scRef).
		IPCClientDisconnect().
		Addi(6, 6, 1).Movi(5, bandwidthIters).Blt(6, 5, "cli.loop").
		Halt()
	b.Label("sink.loop").
		IPCWaitReceive(bwRBase, words, scPset).
		Jmp("sink.loop")
	img, err := b.Assemble()
	if err != nil {
		return BandwidthResult{}, err
	}
	if _, err := k.LoadImage(s, scCode, img); err != nil {
		return BandwidthResult{}, err
	}
	srv := k.NewThread(s, 9)
	srv.Regs.PC = b.Addr("sink.loop")
	k.StartThread(srv)
	cli := k.NewThread(s, 8)
	cli.Regs.PC = b.Addr("cli")
	k.StartThread(cli)

	start := k.Now()
	k.RunUntil(func() bool { return cli.Exited })
	if !cli.Exited {
		return BandwidthResult{}, fmt.Errorf("bandwidth %d/%s: client stuck at pc=%#x", size, mode, cli.Regs.PC)
	}
	cycles := k.Now() - start
	st := k.Stats()
	total := float64(size) * bandwidthIters
	return BandwidthResult{
		Bytes: size, Mode: mode, NumCPUs: ncpu, LockModel: lm.String(),
		MBps:      total / (float64(cycles) / clock.CyclesPerMicrosecond),
		Shares:    st.ZeroCopyShares,
		Fallbacks: st.ZeroCopyFallbacks,
	}, nil
}

// Bandwidth runs the full sweep: every message size × kernel mode ×
// NumCPUs {1, 2, 4} × both lock models, with Speedup filled in against
// the copying kernel of the same shape.
func Bandwidth() ([]BandwidthResult, error) {
	var out []BandwidthResult
	for _, size := range bwSizes {
		for _, ncpu := range []int{1, 2, 4} {
			for _, lm := range LockModels {
				copyIdx := -1
				for _, mode := range BandwidthModes {
					r, err := BandwidthCell(size, mode, ncpu, lm)
					if err != nil {
						return nil, err
					}
					out = append(out, r)
					if mode == "copy" {
						copyIdx = len(out) - 1
					}
				}
				base := out[copyIdx].MBps
				for i := len(out) - len(BandwidthModes); i < len(out); i++ {
					out[i].Speedup = out[i].MBps / base
				}
			}
		}
	}
	return out, nil
}

// BandwidthRender formats the sweep, one row per (size, shape).
func BandwidthRender(rows []BandwidthResult) *stats.Table {
	t := stats.NewTable("Bulk IPC bandwidth: zero-copy frame sharing vs the copying kernels (simulated MB/s)",
		"message", "cpus", "locks", "zerocopy", "copy", "fastpath-off", "speedup", "shares")
	byKey := map[string]map[string]BandwidthResult{}
	var order []string
	for _, r := range rows {
		key := fmt.Sprintf("%s|%d|%s", fmtBytes(r.Bytes), r.NumCPUs, r.LockModel)
		if byKey[key] == nil {
			byKey[key] = map[string]BandwidthResult{}
			order = append(order, key)
		}
		byKey[key][r.Mode] = r
	}
	for _, key := range order {
		m := byKey[key]
		zc, cp, fo := m["zerocopy"], m["copy"], m["fastpath-off"]
		t.Row(fmtBytes(zc.Bytes), zc.NumCPUs, zc.LockModel,
			fmt.Sprintf("%.1f", zc.MBps), fmt.Sprintf("%.1f", cp.MBps), fmt.Sprintf("%.1f", fo.MBps),
			fmt.Sprintf("%.2fx", zc.Speedup), zc.Shares)
	}
	return t
}

func fmtBytes(b uint32) string {
	if b >= 1<<20 {
		return fmt.Sprintf("%d MiB", b>>20)
	}
	return fmt.Sprintf("%d KiB", b>>10)
}
