package workload

import (
	"encoding/binary"
	"fmt"

	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/mmu"
	"repro/internal/netsrv"
	"repro/internal/obj"
	"repro/internal/prog"
)

// Netserve client layout (one client space per NIC queue).
const (
	nwCode = 0x0001_0000 // + i*0x1000
	nwData = 0x0004_0000 // + i*64: request words @0, error count @16
	nwBuf  = 0x0020_0000 // + i*bufPages*PageSize, page-aligned for zero-copy
)

// NetserveScale parameterizes the network-server workload.
type NetserveScale struct {
	Queues    int // NIC queues (one driver thread each)
	Workers   int // worker threads per queue
	Clients   int // client threads per queue
	RPCs      int // requests per client
	RespWords int // response size in 32-bit words
}

// DefaultNetserveScale keeps the rings and workers busy long enough for
// coalescing and zero-copy to matter: 16 KiB responses, 256 connections.
func DefaultNetserveScale() NetserveScale {
	return NetserveScale{Queues: 2, Workers: 4, Clients: 8, RPCs: 16, RespWords: 4096}
}

// SmallNetserveScale is a fast variant for tests and -fast runs.
func SmallNetserveScale() NetserveScale {
	return NetserveScale{Queues: 1, Workers: 2, Clients: 2, RPCs: 4, RespWords: 1024}
}

// NewNetserve builds the network-server workload: the simulated NIC and
// the user-mode network server attach to the kernel, then client threads
// fire framed request/response RPCs at it. Every response crosses the
// RX descriptor ring as device DMA, is dispatched by the driver thread
// to a worker, and travels back to the client over IPC — zero-copy when
// the kernel allows it. Clients verify the per-page response stamps and
// count mismatches; Check reports them after the run.
func NewNetserve(k *core.Kernel, sc NetserveScale) (*Workload, error) {
	if sc.Queues <= 0 || sc.Workers <= 0 || sc.Clients <= 0 || sc.RPCs <= 0 || sc.RespWords <= 0 {
		return nil, fmt.Errorf("netserve: bad scale %+v", sc)
	}
	bufPages := (sc.RespWords*4 + int(mem.PageSize) - 1) / int(mem.PageSize)
	sv, err := netsrv.Attach(k, netsrv.Config{
		Queues: sc.Queues, Workers: sc.Workers, BufPages: bufPages,
	})
	if err != nil {
		return nil, err
	}

	scratchSz := mem.PageRound(uint32(sc.Clients * 64))
	bufSz := uint32(sc.Clients * bufPages * int(mem.PageSize))
	var done []*obj.Thread
	var cspaces []*obj.Space
	for q := 0; q < sc.Queues; q++ {
		cs := k.NewSpace()
		k.SetSpaceHome(cs, (q+sc.Queues)%k.NumCPUs())
		for _, m := range []struct {
			handle, va, size uint32
		}{
			{core.KObjBase + 0x900, nwData, scratchSz},
			{core.KObjBase + 0x908, nwBuf, bufSz},
		} {
			r, err := k.NewBoundRegion(cs, m.handle, m.size, true)
			if err != nil {
				return nil, err
			}
			if _, err := k.MapInto(cs, r, m.va, 0, m.size, mmu.PermRW); err != nil {
				return nil, err
			}
			if err := k.Populate(cs, m.va, m.size); err != nil {
				return nil, err
			}
		}
		for i := 0; i < sc.Clients; i++ {
			refVA := sv.ClientRef(k, cs, q, i)
			conn := uint32(q*256 + i + 1)
			pb := netserveClientProgram(i, conn, refVA, sc, bufPages)
			th, err := k.SpawnProgram(cs, uint32(nwCode+i*0x1000), pb.MustAssemble(), 10)
			if err != nil {
				return nil, err
			}
			done = append(done, th)
		}
		cspaces = append(cspaces, cs)
	}

	check := func() error {
		errs := 0
		for _, cs := range cspaces {
			for i := 0; i < sc.Clients; i++ {
				eb, err := k.ReadMem(cs, uint32(nwData+i*64+16), 4)
				if err != nil {
					return err
				}
				errs += int(binary.LittleEndian.Uint32(eb))
			}
		}
		if errs != 0 {
			return fmt.Errorf("netserve: %d response stamp mismatches", errs)
		}
		return nil
	}
	return &Workload{Name: "netserve", K: k, Done: done, NIC: sv.NIC, Check: check}, nil
}

// netserveClientProgram is client i's loop: stamp a request, RPC it to
// the server, verify the first and last response pages, repeat. R6 holds
// the iteration count (the only register syscalls preserve).
func netserveClientProgram(i int, conn, refVA uint32, sc NetserveScale, bufPages int) *prog.Builder {
	slot := uint32(nwData + i*64)
	errW := slot + 16
	rbuf := uint32(nwBuf + i*bufPages*int(mem.PageSize))
	lastPage := uint32((sc.RespWords*4 - 1) / int(mem.PageSize))

	b := prog.New(uint32(nwCode + i*0x1000))
	checkStamp := func(p uint32, ok string) {
		b.Movi(1, rbuf+p*mem.PageSize).Ld(2, 1, 0).
			Movi(3, 255).And(3, 6, 3).
			Movi(4, 8).Shl(3, 3, 4).
			Movi(4, netsrv.ResponseStamp(conn, 0, p)).Add(3, 3, 4).
			Beq(2, 3, ok).
			Movi(1, errW).Ld(2, 1, 0).Addi(2, 2, 1).St(1, 0, 2).
			Label(ok)
	}

	b.Movi(6, 0)
	b.Label("loop").
		Movi(1, slot).Movi(2, conn).St(1, 0, 2).St(1, 4, 6).
		Movi(2, uint32(sc.RespWords)).St(1, 8, 2)
	b.IPCClientConnectSendOverReceive(slot, 3, refVA, rbuf, uint32(sc.RespWords)).
		IPCClientDisconnect()
	checkStamp(0, "ok0")
	if lastPage > 0 {
		checkStamp(lastPage, "ok1")
	}
	b.Addi(6, 6, 1).Movi(5, uint32(sc.RPCs)).Blt(6, 5, "loop").
		Halt()
	return b
}
