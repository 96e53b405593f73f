package fs

import (
	"repro/internal/core"
	"repro/internal/dev"
	"repro/internal/mem"
	"repro/internal/mmu"
	"repro/internal/obj"
	"repro/internal/prog"
	"repro/internal/sys"
)

// FS-server guest layout.
const (
	fsCode = 0x0001_0000
	fsData = 0x0004_0000

	fsSB   = fsData + 0x0000 // superblock buffer (512 B)
	fsTab  = fsData + 0x0200 // file-table buffer (512 B)
	fsDat  = fsData + 0x0400 // data sector buffer (512 B)
	fsReq  = fsData + 0x0600 // inbound request (2 words)
	fsReq2 = fsData + 0x0610 // outbound driver request (1 word)
	fsErr  = fsData + 0x0620 // error reply word
	fsNF   = fsData + 0x0630 // cached file count
	fsSec  = fsData + 0x0640 // fetch parameter: sector
	fsDst  = fsData + 0x0644 // fetch parameter: destination buffer
	fsLR   = fsData + 0x0648 // saved link register across fetch
)

// Server is an attached filesystem service.
type Server struct {
	Thread *obj.Thread
	Space  *obj.Space
	Port   *obj.Port
}

// AttachServer starts the filesystem server on kernel k, serving the BFS
// volume behind the given disk driver. The server boots by fetching the
// superblock and file table through the driver, then serves read RPCs:
// request = [file index, sector-in-file], reply = 128 words of data or a
// single error word.
func AttachServer(k *core.Kernel, driver *dev.Driver, priority int) (*Server, error) {
	s := k.NewSpace()
	data := &obj.Region{Header: obj.Header{Type: sys.ObjRegion}, R: mmu.NewRegion(4*mem.PageSize, true)}
	k.BindFresh(s, data)
	if _, err := k.MapInto(s, data, fsData, 0, 4*mem.PageSize, mmu.PermRW); err != nil {
		return nil, err
	}
	// Pre-touch the working page so server replies never fault.
	if err := k.Populate(s, fsData, 0x700); err != nil {
		return nil, err
	}
	drvRef := driver.ClientRef(k, s)

	po, _ := obj.New(sys.ObjPort)
	pso, _ := obj.New(sys.ObjPortset)
	port := po.(*obj.Port)
	ps := pso.(*obj.Portset)
	k.BindFresh(s, port)
	psVA := k.BindFresh(s, ps)
	ps.AddPort(port)

	b := ServerProgram(psVA, drvRef)
	th, err := k.SpawnProgram(s, fsCode, b.MustAssemble(), priority)
	if err != nil {
		return nil, err
	}
	return &Server{Thread: th, Space: s, Port: port}, nil
}

// ClientRef binds a Reference to the FS port into a client space.
func (sv *Server) ClientRef(k *core.Kernel, client *obj.Space) uint32 {
	ref := &obj.Ref{Header: obj.Header{Type: sys.ObjRef}, Target: sv.Port}
	return k.BindFresh(client, ref)
}

// ServerProgram builds the filesystem server. It is the largest guest
// program in the repository and a faithful multi-server citizen: its
// *server* half holds the client connection while its *client* half runs
// driver RPCs.
func ServerProgram(psVA, drvRef uint32) *prog.Builder {
	b := prog.New(fsCode)

	// --- boot: superblock, then file table ---
	b.Jmp("boot")

	// fetch: read sector [fsSec] into buffer [fsDst] via a driver RPC.
	// Clobbers r1-r5, r7 (saved), preserves r6.
	b.Label("fetch").
		Movi(4, fsLR).St(4, 0, 7). // save LR (syscall stubs clobber it)
		Movi(4, fsSec).Ld(5, 4, 0).
		Movi(4, fsReq2).St(4, 0, 5). // driver request word = sector
		Movi(4, fsDst).Ld(4, 4, 0).  // R4 = receive buffer (stub's rbuf)
		Movi(1, fsReq2).Movi(2, 1).Movi(3, drvRef).Movi(5, dev.SectorSize/4).
		Syscall(sys.NIPCClientConnectSendOverReceive).
		IPCClientDisconnect().
		Movi(4, fsLR).Ld(7, 4, 0). // restore LR
		Ret()

	b.Label("boot").
		Movi(4, fsSec).Movi(5, superSector).St(4, 0, 5).
		Movi(4, fsDst).Movi(5, fsSB).St(4, 0, 5).
		Call("fetch").
		Movi(4, fsSec).Movi(5, tableSector).St(4, 0, 5).
		Movi(4, fsDst).Movi(5, fsTab).St(4, 0, 5).
		Call("fetch").
		// Cache the file count from superblock word 1.
		Movi(4, fsSB).Ld(5, 4, 4).
		Movi(4, fsNF).St(4, 0, 5)

	// --- service loop ---
	b.IPCWaitReceive(fsReq, 2, psVA)
	b.Label("serve").
		// r6 = file index
		Movi(4, fsReq).Ld(6, 4, 0).
		// bounds: idx < file count
		Movi(4, fsNF).Ld(5, 4, 0)
	b.Bge(6, 5, "badidx")
	// entry = fsTab + idx*32; r3 = start sector, r2 = size bytes
	b.Movi(5, 5).Shl(4, 6, 5).Addi(4, 4, fsTab).
		Ld(3, 4, 16).
		Ld(2, 4, 20)
	// r5 = requested sector-in-file; byte offset r1 = r5 << 9
	b.Movi(4, fsReq).Ld(5, 4, 4).
		Movi(1, 9).Shl(1, 5, 1)
	b.Bge(1, 2, "badeof")
	// absolute sector = start + sector-in-file
	b.Add(3, 3, 5).
		Movi(4, fsSec).St(4, 0, 3).
		Movi(4, fsDst).Movi(5, fsDat).St(4, 0, 5).
		Call("fetch").
		IPCReplyWaitReceive(fsDat, dev.SectorSize/4, psVA, fsReq, 2).
		Jmp("serve")

	reply1 := func(label string, word uint32) {
		b.Label(label).
			Movi(4, fsErr).Movi(5, word).St(4, 0, 5).
			IPCReplyWaitReceive(fsErr, 1, psVA, fsReq, 2).
			Jmp("serve")
	}
	reply1("badidx", ErrBadIndex)
	reply1("badeof", ErrBadEOF)
	return b
}
