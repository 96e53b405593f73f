package experiments

import (
	"encoding/binary"
	"testing"

	"repro/internal/core"
	"repro/internal/equiv"
)

// TestNetloadSmoke drives the CI-smoke scale end to end in every mode
// and checks the accounting identities: every connection completes,
// contributes exactly one latency sample, crosses the NIC exactly once
// in each direction, and verifies its payload stamps.
func TestNetloadSmoke(t *testing.T) {
	sc := FastNetloadScale()
	for _, mode := range NetloadModes {
		res, err := NetloadCell(mode, 1, core.LockBig, sc)
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		if res.Errors != 0 {
			t.Errorf("%s: %d payload stamp errors", mode, res.Errors)
		}
		if res.Conns != sc.Conns() {
			t.Errorf("%s: %d conns, want %d", mode, res.Conns, sc.Conns())
		}
		if got := res.NIC.TxFrames; got != uint64(sc.Conns()) {
			t.Errorf("%s: %d TX frames, want %d", mode, got, sc.Conns())
		}
		if got := res.NIC.RxFrames; got != uint64(sc.Conns()) {
			t.Errorf("%s: %d RX frames, want %d", mode, got, sc.Conns())
		}
		if got := res.NIC.RxBytes; got != res.Bytes {
			t.Errorf("%s: NIC RxBytes %d != client bytes %d", mode, got, res.Bytes)
		}
	}
}

// TestNetloadSpeedup pins the perf headline: with 64 KiB responses, the
// tuned configuration (interrupt coalescing + zero-copy replies) must
// deliver at least 3x the simulated throughput of the naive one — and
// the latency distribution must account for 100% of connections, so the
// p99 is over every RPC, not a sampled subset.
func TestNetloadSpeedup(t *testing.T) {
	sc := NetloadScale{Queues: 1, Workers: 4, Clients: 8, RPCs: 8, RespWords: 16384}
	cellOf := func(mode string) *netloadCell {
		cell, err := runNetloadCell(mode, 1, core.LockBig, netloadBaseConfig(), sc, false)
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		if cell.Res.Errors != 0 {
			t.Fatalf("%s: %d payload stamp errors", mode, cell.Res.Errors)
		}
		if cell.Lat.Count() != sc.Conns() {
			t.Fatalf("%s: %d latency samples for %d conns — p99 not 100%% accounted",
				mode, cell.Lat.Count(), sc.Conns())
		}
		if cell.Res.P99 <= 0 || cell.Res.P99 < cell.Res.P50 {
			t.Fatalf("%s: implausible percentiles p50=%.1f p99=%.1f",
				mode, cell.Res.P50, cell.Res.P99)
		}
		return cell
	}
	naive := cellOf(NetloadNaive)
	tuned := cellOf(NetloadTuned)
	speedup := tuned.Res.MBPerVirtualS / naive.Res.MBPerVirtualS
	t.Logf("naive %.1f MB/s (p99 %.0f µs), tuned %.1f MB/s (p99 %.0f µs): %.2fx",
		naive.Res.MBPerVirtualS, naive.Res.P99,
		tuned.Res.MBPerVirtualS, tuned.Res.P99, speedup)
	if speedup < 3.0 {
		t.Fatalf("tuned/naive simulated throughput %.2fx, want >= 3x", speedup)
	}
	// The gates must actually have gated: the tuned run shares pages
	// zero-copy and coalesces interrupts; the naive run does neither.
	if tuned.Res.ZeroCopyShares == 0 {
		t.Error("tuned: no zero-copy shares — replies took the copy path")
	}
	if naive.Res.ZeroCopyShares != 0 {
		t.Errorf("naive: %d zero-copy shares with the path disabled", naive.Res.ZeroCopyShares)
	}
	if tuned.Res.NIC.Coalesced == 0 {
		t.Error("tuned: no coalesced frames — every frame paid an interrupt")
	}
	if naive.Res.NIC.Coalesced != 0 {
		t.Errorf("naive: %d coalesced frames with coalescing disabled", naive.Res.NIC.Coalesced)
	}
	if naive.Res.NIC.IRQs < uint64(sc.Conns()) {
		t.Errorf("naive: %d IRQs < %d frames — one-per-frame discipline broken",
			naive.Res.NIC.IRQs, sc.Conns())
	}
}

// TestNICCoalesceEquivalence runs the fleet through the equivalence
// harness. runNetloadCell builds its kernel itself, so the digest is what a
// cell reports: client-visible memory (payloads and stamp-error counts) as
// a hash, and — compared only by the identical classes — a hash of every
// latency sample, the clock and Stats.
func TestNICCoalesceEquivalence(t *testing.T) {
	sc := FastNetloadScale()
	modes := map[[2]bool]string{
		{false, false}: NetloadTuned, {true, false}: NetloadNoCoalesce,
		{false, true}: NetloadNoZeroCopy, {true, true}: NetloadNaive,
	}
	// A NIC register write times the work it kicks from the clock its
	// handler reads: mid-batch, that is the batch's start with the fast
	// paths on and the instruction's own cycle with them off. So here the
	// fast paths move virtual time, and only what the guest sees must hold.
	fastPath := equiv.FastPath
	fastPath.Class = equiv.Guest
	equiv.Check(t, equiv.Scenario{
		Flags: []equiv.Flag{equiv.NICCoalesce, equiv.ZeroCopy, equiv.IPCFastPath, fastPath, equiv.ThreadedCode},
		Run: func(t *testing.T, r *equiv.Run) *equiv.Digest {
			cfg := r.Config
			mode := modes[[2]bool{cfg.DisableNICCoalesce, cfg.DisableZeroCopy}]
			cell, err := runNetloadCell(mode, cfg.NumCPUs, cfg.LockModel, cfg, sc, false)
			if err != nil {
				t.Fatal(err)
			}
			if cell.Res.Errors != 0 {
				t.Fatalf("%d payload stamp errors", cell.Res.Errors)
			}
			return &equiv.Digest{
				Mem: []equiv.Range{
					{Name: "client payload hash", Bytes: binary.LittleEndian.AppendUint64(nil, cell.PayloadDigest)},
					{Name: "samples, clock and Stats hash", Bytes: binary.LittleEndian.AppendUint64(nil, cell.FullDigest), Timing: true},
				},
				Counters: map[string]uint64{"Coalesced": cell.Res.NIC.Coalesced, "ZeroCopyShares": cell.Res.ZeroCopyShares},
			}
		},
	})
}

// TestNetloadParallelHost runs the tuned cell under real host
// parallelism — the -race CI step's target. Timing-derived numbers are
// not deterministic there; the invariants that must survive are
// completion, payload integrity, and the accounting identities.
func TestNetloadParallelHost(t *testing.T) {
	sc := NetloadScale{Queues: 2, Workers: 2, Clients: 4, RPCs: 4, RespWords: 2048}
	cell, err := runNetloadCell(NetloadTuned, 4, core.LockFine, netloadBaseConfig(), sc, true)
	if err != nil {
		t.Fatal(err)
	}
	if cell.Res.Errors != 0 {
		t.Errorf("%d payload stamp errors", cell.Res.Errors)
	}
	if cell.Lat.Count() != sc.Conns() {
		t.Errorf("%d latency samples, want %d", cell.Lat.Count(), sc.Conns())
	}
	if got := cell.Res.NIC.RxFrames; got != uint64(sc.Conns()) {
		t.Errorf("%d RX frames, want %d", got, sc.Conns())
	}
}

func BenchmarkNetload(b *testing.B) {
	sc := FastNetloadScale()
	for i := 0; i < b.N; i++ {
		if _, err := NetloadCell(NetloadTuned, 1, core.LockBig, sc); err != nil {
			b.Fatal(err)
		}
	}
}
