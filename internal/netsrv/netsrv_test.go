package netsrv_test

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/netsrv"
	"repro/internal/obj"
)

// TestResponseStampPacking pins the stamp layout clients decode: conn in
// the high half, the low byte of seq, the low byte of the page index.
func TestResponseStampPacking(t *testing.T) {
	for _, tc := range []struct {
		conn, seq, page, want uint32
	}{
		{1, 0, 0, 0x0001_0000},
		{0, 1, 0, 0x0000_0100},
		{0, 0, 1, 0x0000_0001},
		{0x1234, 0x56, 0x78, 0x1234_5678},
		{257, 3, 2, 257<<16 | 3<<8 | 2},            // netserve's queue-1 connection ids
		{0, 0x1FF, 0, 0x0000_FF00},                 // seq wraps at a byte
		{0, 0, 0x100, 0},                           // so does the page index
		{0xFFFF, 0x100, 0x1FF, 0xFFFF_00FF},        // fields never bleed into a neighbour
		{2, 0xABCD_EF12, 0x3456_7890, 0x0002_1290}, // only the low bytes of wide inputs
	} {
		if got := netsrv.ResponseStamp(tc.conn, tc.seq, tc.page); got != tc.want {
			t.Errorf("ResponseStamp(%#x, %#x, %#x) = %#x, want %#x", tc.conn, tc.seq, tc.page, got, tc.want)
		}
	}
}

func TestAttachRejectsBadConfig(t *testing.T) {
	for name, cfg := range map[string]netsrv.Config{
		"too many queues":     {Queues: netsrv.MaxQueues + 1},
		"too many workers":    {Workers: netsrv.MaxWorkers + 1},
		"ring not power of 2": {RingSlots: 12},
		"ring below workers":  {Workers: 8, RingSlots: 4},
		"ring overflows page": {RingSlots: 512},
	} {
		k := core.New(core.Config{Model: core.ModelInterrupt})
		if _, err := netsrv.Attach(k, cfg); err == nil {
			t.Errorf("%s: Attach accepted %+v", name, cfg)
		}
		k.Shutdown()
	}
}

// TestAttachServesEveryStamp runs the smallest server — one queue, one
// worker — against two clients on two CPUs under the big and the fine lock
// model. Every RPC receives into its own buffer, so after the run the test
// reads back every reply whole: the stamp at the top of each page must be
// the responder's for that (conn, seq, page), every other word zero, and
// the NIC must have carried exactly one frame each way per connection.
func TestAttachServesEveryStamp(t *testing.T) {
	const (
		clients   = 2
		rpcs      = 3
		respWords = 2*mem.PageSize/4 + 16 // reaches into the third page: a zero-copy sized reply
	)
	for _, lm := range []core.LockModel{core.LockBig, core.LockFine} {
		lm := lm
		t.Run(fmt.Sprintf("lockmodel=%v", lm), func(t *testing.T) {
			r := newRig(t, core.Config{Model: core.ModelInterrupt, Preempt: core.PreemptPartial,
				NumCPUs: 2, LockModel: lm}, netsrv.Config{Queues: 1, Workers: 1, BufPages: 3}, clients*rpcs)
			k, sv := r.k, r.sv
			if len(sv.Queues) != 1 || len(sv.Queues[0].Workers) != 1 || len(sv.Queues[0].Ports) != 1 {
				t.Fatalf("Attach built %d queues, want 1 queue / 1 worker / 1 port", len(sv.Queues))
			}
			k.SetSpaceHome(r.cs, 1) // the driver space is pinned to CPU 0
			var threads []*obj.Thread
			for c := 0; c < clients; c++ {
				threads = append(threads, r.client(uint32(c+1), c*rpcs, []uint32{respWords, respWords, respWords}, false))
			}
			k.RunFor(200_000_000)
			for c, th := range threads {
				if !th.Exited {
					t.Fatalf("client %d did not finish (state=%v pc=%#x r0=%d)", c, th.State, th.Regs.PC, th.Regs.R[0])
				}
				for j := 0; j < rpcs; j++ {
					r.checkReply(uint32(c+1), c*rpcs+j, respWords)
				}
			}
			const connections = clients * rpcs
			ctr := sv.Counters()
			if ctr.RxFrames != connections || ctr.TxFrames != connections {
				t.Fatalf("NIC carried %d tx / %d rx frames for %d connections", ctr.TxFrames, ctr.RxFrames, connections)
			}
			if want := uint64(connections * respWords * 4); ctr.RxBytes != want || ctr.TxBytes != connections*12 {
				t.Fatalf("NIC carried %d tx / %d rx bytes, want %d / %d", ctr.TxBytes, ctr.RxBytes, connections*12, want)
			}
			if ctr.IRQs == 0 || ctr.IRQs > connections {
				t.Fatalf("%d interrupts for %d frames", ctr.IRQs, connections)
			}
			if st := k.Stats(); st.ZeroCopyShares == 0 {
				t.Fatalf("no reply rode the zero-copy path out of the DMA window (fallbacks: %d)", st.ZeroCopyFallbacks)
			}
		})
	}
}
