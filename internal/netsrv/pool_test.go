package netsrv_test

import (
	"bytes"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/netsrv"
)

// uniCfg is the kernel the pool tests run on: one CPU, the paper's
// partially preemptible interrupt-model kernel.
var uniCfg = core.Config{Model: core.ModelInterrupt, Preempt: core.PreemptPartial}

const (
	words64K = 64 << 10 / 4
	words1K  = 1 << 10 / 4
)

// TestBodyReuseAcrossSizes sends replies of 64 KiB plus a trailer, then
// 1 KiB, then 64 KiB through one worker, so each is built in the buffer
// its predecessor just vacated, and checks every word of every reply.
func TestBodyReuseAcrossSizes(t *testing.T) {
	sizes := []uint32{words64K + 16, words1K, words64K, words1K + 1, words64K + 16}
	r := newRig(t, uniCfg, netsrv.Config{Queues: 1, Workers: 1, BufPages: 17}, len(sizes))
	r.fetch(7, 0, sizes)
	for j, n := range sizes {
		r.checkReply(7, j, n)
	}
	if c := r.sv.Counters(); c.RxFrames != uint64(len(sizes)) || c.BadDescs != 0 {
		t.Fatalf("NIC counters after %d replies: %+v", len(sizes), c)
	}
}

// TestBodyPoolIgnoresForeignPayloads injects a frame that is not the
// responder's — non-zero throughout and exactly a body's size — between
// two rounds of replies. The NIC reports it back through OnDelivered like
// any other; if the free list adopted it, the next reply would be built on
// top of its bytes.
func TestBodyPoolIgnoresForeignPayloads(t *testing.T) {
	sizes := []uint32{words64K, words64K}
	// Two workers, clients on worker 0 only: the foreign frame is tagged
	// for worker 1, which nobody ever asks for a reply.
	r := newRig(t, uniCfg, netsrv.Config{Queues: 1, Workers: 2}, 2*len(sizes))
	r.fetch(3, 0, sizes)
	r.sv.NIC.Deliver(0, 1, bytes.Repeat([]byte{0xAB}, r.sv.Cfg.BufPages*mem.PageSize))
	r.fetch(3, len(sizes), sizes)
	for j := 0; j < 2*len(sizes); j++ {
		r.checkReply(3, j, words64K)
	}
	if c := r.sv.Counters(); c.RxFrames != uint64(2*len(sizes)+1) {
		t.Fatalf("NIC delivered %d frames, want %d replies and the foreign one", c.RxFrames, 2*len(sizes))
	}
}

// TestNetserveSteadyStateAllocs keeps one client fetching 64 KiB replies
// forever and measures host bytes allocated per connection over a short
// and a sixteen times longer slice: the reply body alone is 64 KiB, so
// staying under 4 KiB shows bodies are reused, and the long slice costing
// no more per connection than the short one shows nothing accumulates.
func TestNetserveSteadyStateAllocs(t *testing.T) {
	r := newRig(t, uniCfg, netsrv.Config{Queues: 1, Workers: 1}, 1)
	r.client(1, 0, []uint32{words64K}, true)
	perConn := func(cycles uint64) float64 {
		var m0, m1 runtime.MemStats
		c0 := r.sv.Counters().RxFrames
		runtime.ReadMemStats(&m0)
		r.k.RunFor(cycles)
		runtime.ReadMemStats(&m1)
		conns := r.sv.Counters().RxFrames - c0
		if conns < 20 {
			t.Fatalf("only %d connections in a %d-cycle slice", conns, cycles)
		}
		return float64(m1.TotalAlloc-m0.TotalAlloc) / float64(conns)
	}
	const slice = 2_000_000
	perConn(4 * slice) // warm-up: pool, rings, translation caches and timer heaps fill
	short, long := perConn(slice), perConn(16*slice)
	t.Logf("host bytes allocated per connection: %.0f (short slice), %.0f (16x slice)", short, long)
	if short > 4096 || long > 4096 {
		t.Fatalf("a 64 KiB connection allocates %.0f / %.0f host bytes, want under 4 KiB", short, long)
	}
	if long > short+256 {
		t.Fatalf("allocation per connection grows with run length: %.0f short, %.0f over 16x", short, long)
	}
	r.checkReply(1, 0, words64K)
}
