package experiments

import (
	"testing"

	"repro/internal/core"
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

// TestNICCoalesceEquivalence pins the optimization's safety: interrupt
// coalescing may change timing, but everything a client can observe in
// memory — response payloads, stamp checks — must be bit-identical with
// it on and off, across the paper's kernel configurations and across
// CPU counts and lock models. Same-config runs must also be fully
// deterministic: samples, virtual clock, and kernel stats identical
// run to run.
func TestNICCoalesceEquivalence(t *testing.T) {
	sc := FastNetloadScale()

	check := func(name string, base core.Config, cpus int, lm core.LockModel) {
		off1, err := runNetloadCell(NetloadNoCoalesce, cpus, lm, base, sc, false)
		if err != nil {
			t.Fatalf("%s off#1: %v", name, err)
		}
		off2, err := runNetloadCell(NetloadNoCoalesce, cpus, lm, base, sc, false)
		if err != nil {
			t.Fatalf("%s off#2: %v", name, err)
		}
		on, err := runNetloadCell(NetloadTuned, cpus, lm, base, sc, false)
		if err != nil {
			t.Fatalf("%s on: %v", name, err)
		}
		if off1.FullDigest != off2.FullDigest {
			t.Errorf("%s: coalescing-off runs diverge (full digest %#x vs %#x) — determinism broken",
				name, off1.FullDigest, off2.FullDigest)
		}
		if off1.PayloadDigest != on.PayloadDigest {
			t.Errorf("%s: client-visible memory differs with coalescing on vs off (%#x vs %#x)",
				name, on.PayloadDigest, off1.PayloadDigest)
		}
		for _, c := range []*netloadCell{off1, on} {
			if c.Res.Errors != 0 {
				t.Errorf("%s: %d payload stamp errors (mode=%s)", name, c.Res.Errors, c.Res.Mode)
			}
		}
	}

	// The paper's five kernel configurations, uniprocessor.
	for _, cfg := range core.Configurations() {
		name := cfg.Model.String() + "/" + cfg.Preempt.String()
		check(name, cfg, 1, core.LockBig)
	}
	// CPU counts x lock models on the interrupt/PP base.
	for _, cpus := range []int{1, 2} {
		for _, lm := range LockModels {
			name := "interrupt/pp/" + lm.String()
			check(name, netloadBaseConfig(), cpus, lm)
		}
	}
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
