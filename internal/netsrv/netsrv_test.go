package netsrv_test

import (
	"encoding/binary"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/mmu"
	"repro/internal/netsrv"
	"repro/internal/obj"
	"repro/internal/prog"
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

// Client-space layout of the Attach test.
const (
	clCode = 0x0001_0000 // + client*0x1000
	clReq  = 0x0004_0000 // + client*64: the 3-word request
	clBuf  = 0x0020_0000 // + (client*rpcs + rpc)*bufPages pages: one receive buffer per RPC
)

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
		bufPages  = 3
		respWords = 2*mem.PageSize/4 + 16 // reaches into the third page: a zero-copy sized reply
	)
	for _, lm := range []core.LockModel{core.LockBig, core.LockFine} {
		lm := lm
		t.Run(fmt.Sprintf("lockmodel=%v", lm), func(t *testing.T) {
			k := core.New(core.Config{Model: core.ModelInterrupt, Preempt: core.PreemptPartial,
				NumCPUs: 2, LockModel: lm})
			defer k.Shutdown()
			sv, err := netsrv.Attach(k, netsrv.Config{Queues: 1, Workers: 1, BufPages: bufPages})
			if err != nil {
				t.Fatal(err)
			}
			if len(sv.Queues) != 1 || len(sv.Queues[0].Workers) != 1 || len(sv.Queues[0].Ports) != 1 {
				t.Fatalf("Attach built %d queues, want 1 queue / 1 worker / 1 port", len(sv.Queues))
			}

			cs := k.NewSpace()
			k.SetSpaceHome(cs, 1) // the driver space is pinned to CPU 0
			const bufBytes = clients * rpcs * bufPages * mem.PageSize
			for _, m := range []struct{ handle, va, size uint32 }{
				{core.KObjBase + 0x900, clReq, mem.PageSize},
				{core.KObjBase + 0x908, clBuf, bufBytes},
			} {
				r, err := k.NewBoundRegion(cs, m.handle, m.size, true)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := k.MapInto(cs, r, m.va, 0, m.size, mmu.PermRW); err != nil {
					t.Fatal(err)
				}
			}
			rbuf := func(c, j int) uint32 {
				return clBuf + uint32((c*rpcs+j)*bufPages)*mem.PageSize
			}
			var threads []*obj.Thread
			for c := 0; c < clients; c++ {
				conn, req := uint32(c+1), uint32(clReq+c*64)
				refVA := sv.ClientRef(k, cs, 0, c)
				b := prog.New(uint32(clCode + c*0x1000))
				for j := 0; j < rpcs; j++ {
					b.Movi(1, req).
						Movi(2, conn).St(1, 0, 2).
						Movi(2, uint32(j)).St(1, 4, 2).
						Movi(2, respWords).St(1, 8, 2)
					b.IPCClientConnectSendOverReceive(req, 3, refVA, rbuf(c, j), respWords).
						IPCClientDisconnect()
				}
				b.Halt()
				th, err := k.SpawnProgram(cs, b.Base(), b.MustAssemble(), 10)
				if err != nil {
					t.Fatal(err)
				}
				threads = append(threads, th)
			}

			k.RunFor(200_000_000)
			for c, th := range threads {
				if !th.Exited {
					t.Fatalf("client %d did not finish (state=%v pc=%#x r0=%d)", c, th.State, th.Regs.PC, th.Regs.R[0])
				}
			}
			for c := 0; c < clients; c++ {
				for j := 0; j < rpcs; j++ {
					body, err := k.ReadMem(cs, rbuf(c, j), bufPages*mem.PageSize)
					if err != nil {
						t.Fatal(err)
					}
					for w := 0; w < len(body)/4; w++ {
						want := uint32(0)
						if page := uint32(w*4) / mem.PageSize; w < respWords && uint32(w*4)%mem.PageSize == 0 {
							want = netsrv.ResponseStamp(uint32(c+1), uint32(j), page)
						}
						if got := binary.LittleEndian.Uint32(body[w*4:]); got != want {
							t.Fatalf("client %d rpc %d word %d = %#x, want %#x", c, j, w, got, want)
						}
					}
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
