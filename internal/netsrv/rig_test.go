package netsrv_test

import (
	"encoding/binary"
	"testing"

	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/mmu"
	"repro/internal/netsrv"
	"repro/internal/obj"
	"repro/internal/prog"
)

// Client-space layout of the rig.
const (
	clCode = 0x0001_0000 // + thread*0x1000
	clReq  = 0x0004_0000 // + thread*64: the 3-word request
	clBuf  = 0x0020_0000 // + slot*BufPages pages: one receive buffer per reply
)

// rig is a server on a kernel of the caller's choosing and one client
// space whose threads all talk to queue 0's worker 0. The client's
// receive area is a row of reply slots, cfg.BufPages pages each,
// starting at clBuf.
type rig struct {
	t       *testing.T
	k       *core.Kernel
	sv      *netsrv.Service
	cs      *obj.Space
	refVA   uint32
	threads int
}

func newRig(t *testing.T, kcfg core.Config, cfg netsrv.Config, slots int) *rig {
	t.Helper()
	k := core.New(kcfg)
	t.Cleanup(k.Shutdown)
	sv, err := netsrv.Attach(k, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cs := k.NewSpace()
	for _, m := range []struct{ handle, va, size uint32 }{
		{core.KObjBase + 0x900, clReq, mem.PageSize},
		{core.KObjBase + 0x908, clBuf, uint32(slots*sv.Cfg.BufPages) * mem.PageSize},
	} {
		r, err := k.NewBoundRegion(cs, m.handle, m.size, true)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := k.MapInto(cs, r, m.va, 0, m.size, mmu.PermRW); err != nil {
			t.Fatal(err)
		}
	}
	return &rig{t: t, k: k, sv: sv, cs: cs, refVA: sv.ClientRef(k, cs, 0, 0)}
}

func (r *rig) slotVA(slot int) uint32 {
	return clBuf + uint32(slot*r.sv.Cfg.BufPages)*mem.PageSize
}

// client spawns a thread that opens one connection per entry of words
// (the reply sizes), reply j landing in slot first+j with sequence number
// first+j; forever repeats the list instead of halting after it.
func (r *rig) client(conn uint32, first int, words []uint32, forever bool) *obj.Thread {
	r.t.Helper()
	req := uint32(clReq + r.threads*64)
	b := prog.New(uint32(clCode + r.threads*0x1000))
	r.threads++
	b.Label("again")
	for j, n := range words {
		b.Movi(1, req).
			Movi(2, conn).St(1, 0, 2).
			Movi(2, uint32(first+j)).St(1, 4, 2).
			Movi(2, n).St(1, 8, 2)
		b.IPCClientConnectSendOverReceive(req, 3, r.refVA, r.slotVA(first+j), n).
			IPCClientDisconnect()
	}
	if forever {
		b.Jmp("again")
	}
	b.Halt()
	th, err := r.k.SpawnProgram(r.cs, b.Base(), b.MustAssemble(), 10)
	if err != nil {
		r.t.Fatal(err)
	}
	return th
}

// fetch runs one client to completion.
func (r *rig) fetch(conn uint32, first int, words []uint32) {
	r.t.Helper()
	th := r.client(conn, first, words, false)
	r.k.RunFor(400_000_000)
	if !th.Exited {
		r.t.Fatalf("client %d did not finish (state=%v pc=%#x r0=%d)", conn, th.State, th.Regs.PC, th.Regs.R[0])
	}
}

// checkReply reads reply slot `slot` whole: the first `words` words carry
// the responder's stamp at the top of each page and zero everywhere else,
// and nothing lies beyond them. A stamp left over from the body's previous
// use, or filler that is not zero, fails here.
func (r *rig) checkReply(conn uint32, slot int, words uint32) {
	r.t.Helper()
	body, err := r.k.ReadMem(r.cs, r.slotVA(slot), r.sv.Cfg.BufPages*mem.PageSize)
	if err != nil {
		r.t.Fatal(err)
	}
	for w := uint32(0); w < uint32(len(body)/4); w++ {
		want := uint32(0)
		if w < words && w*4%mem.PageSize == 0 {
			want = netsrv.ResponseStamp(conn, uint32(slot), w*4/mem.PageSize)
		}
		if got := binary.LittleEndian.Uint32(body[w*4:]); got != want {
			r.t.Fatalf("conn %d reply %d (%d words) word %d = %#x, want %#x", conn, slot, words, w, got, want)
		}
	}
}
