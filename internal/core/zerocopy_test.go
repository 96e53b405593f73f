package core_test

// Zero-copy transparency: sharing the sender's frames into the receiver's
// region copy-on-write instead of copying words deliberately changes
// virtual time (that is the optimisation), but nothing a user program can
// observe may differ with the path on vs off — final memory on both sides
// of the transfer (after COW breaks from both the receiver and the
// sender) and the Table 3 restart-cause counts (equiv.ZeroCopy) — in
// every cell of the harness matrix, including a run whose receive region
// is pager-backed and unpopulated so a hard fault fires at every page
// boundary of the shared transfer.

import (
	"testing"

	"repro/internal/equiv"
	"repro/internal/mem"
	"repro/internal/mmu"
	"repro/internal/obj"
	"repro/internal/prog"
	"repro/internal/sys"
)

const (
	zcPages = 4
	zcWords = zcPages * mem.PageSize / 4
	zcSBase = 0x0100_0000 // client's page-aligned send window
	zcRBase = 0x0200_0000 // server's page-aligned receive window
)

// runZeroCopyBulk runs one 4-page RPC: the client fills the first two
// pages of its send buffer (the rest stays demand-zero and is first
// touched by the transfer itself), sends all four pages, and — after the
// reply — stores into shared pages 1 and 3; the server stores
// into received pages 0 and 2 before replying. With pagerBacked the
// receive region starts empty and faults to a pager at every page.
func runZeroCopyBulk(t *testing.T, r *equiv.Run, pagerBacked bool) *equiv.Digest {
	t.Helper()
	e := newEnv(t, r.Config)
	e.k.EnableMetrics()
	bindIPC(t, e.k, e.s, e.s)

	sreg, err := e.k.NewBoundRegion(e.s, kernelDataHandle(), zcPages*mem.PageSize, true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.k.MapInto(e.s, sreg, zcSBase, 0, zcPages*mem.PageSize, mmu.PermRW); err != nil {
		t.Fatal(err)
	}
	// The receive region has one page of slack so the receive count can
	// exceed the message and the receive completes on message-end, never
	// on buffer-full (which can race the reply on some schedules).
	rreg, err := e.k.NewBoundRegion(e.s, regVA, (zcPages+1)*mem.PageSize, !pagerBacked)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.k.MapInto(e.s, rreg, zcRBase, 0, (zcPages+1)*mem.PageSize, mmu.PermRW); err != nil {
		t.Fatal(err)
	}
	if pagerBacked {
		po, _ := obj.New(sys.ObjPort)
		pso, _ := obj.New(sys.ObjPortset)
		pgPort := po.(*obj.Port)
		pgPs := pso.(*obj.Portset)
		if err := e.k.Bind(e.s, pgPortVA, pgPort); err != nil {
			t.Fatal(err)
		}
		if err := e.k.Bind(e.s, pgPsVA, pgPs); err != nil {
			t.Fatal(err)
		}
		pgPs.AddPort(pgPort)
		e.k.AttachPager(rreg, pgPort)

		const fmBuf = dataBase + 0x400
		pager := prog.New(codeBase + 0x10000)
		pager.Label("pg.loop").
			IPCWaitReceive(fmBuf, 2, pgPsVA).
			Movi(1, regVA).
			Movi(4, fmBuf).Ld(2, 4, 0).
			Movi(3, 1).
			Syscall(sys.NMemAllocate).
			Jmp("pg.loop")
		if _, err := e.k.LoadImage(e.s, pager.Base(), pager.MustAssemble()); err != nil {
			t.Fatal(err)
		}
		e.spawnAt(pager.Base(), 15)
	}

	const (
		ackBuf = dataBase + 0x200 // client's reply landing word
		repBuf = dataBase + 0x300 // server's reply staging word
	)

	// Server: receive the transfer, break shares on received pages 0 and
	// 2 with stores, stage a reply taken from the (unbroken) data, reply.
	srv := prog.New(codeBase + 0x8000)
	srv.IPCWaitReceive(zcRBase, zcWords+1, psVA).
		Movi(4, zcRBase).Movi(5, 0x77).St(4, 0, 5).
		Movi(4, zcRBase+2*mem.PageSize).Movi(5, 0x2222).St(4, 16, 5).
		Movi(4, zcRBase).Ld(5, 4, 4).
		Movi(4, repBuf).St(4, 0, 5).
		IPCReplyWaitReceive(repBuf, 1, psVA, zcRBase, zcWords+1)

	// Client: fill pages 0–1 with each word's own address, send all four
	// pages, then store into pages 1 and 3 — both shared (the tail-page
	// rule keeps the run open through the final page), so each store
	// breaks a COW pair.
	cli := prog.New(codeBase + 0x4000)
	cli.Movi(4, zcSBase).Movi(5, zcSBase+2*mem.PageSize).
		Label("fill").
		St(4, 0, 4).
		Addi(4, 4, 4).
		Blt(4, 5, "fill").
		IPCClientConnectSendOverReceive(zcSBase, zcWords, refVA, ackBuf, 1).
		IPCClientDisconnect().
		Movi(4, zcSBase+mem.PageSize).Movi(5, 0xAAAA).St(4, 8, 5).
		Movi(4, zcSBase+3*mem.PageSize).Movi(5, 0xBBBB).St(4, 12, 5).
		Halt()

	if _, err := e.k.LoadImage(e.s, srv.Base(), srv.MustAssemble()); err != nil {
		t.Fatal(err)
	}
	e.spawnAt(srv.Base(), 12)
	client := e.spawn(t, cli, 10)
	e.run(t, 4_000_000_000, client)

	d := equiv.Take(t, e.k)
	d.Mem = []equiv.Range{
		equiv.Read(t, e.k, e.s, "send buffer", zcSBase, zcPages*mem.PageSize),
		equiv.Read(t, e.k, e.s, "receive buffer", zcRBase, zcPages*mem.PageSize),
		equiv.Read(t, e.k, e.s, "reply", ackBuf, 4),
	}
	zcSanity(t, d)
	hard := uint64(0)
	for key, n := range d.Stats.FaultCount {
		if key.Class == mmu.FaultHard {
			hard += n
		}
	}
	if pagerBacked && hard < zcPages {
		t.Fatalf("pager-backed run took %d hard faults, want one per page (%d)", hard, zcPages)
	}
	return d
}

// zcSanity pins absolute contents so a bug shared by both paths cannot
// hide in the on-vs-off comparison.
func zcSanity(t *testing.T, d *equiv.Digest) {
	t.Helper()
	var memory []byte // send buffer, receive buffer, reply
	for _, r := range d.Mem {
		memory = append(memory, r.Bytes...)
	}
	const rOff = zcPages * mem.PageSize // receive buffer's offset in memory
	checks := []struct {
		off  int
		want uint32
		what string
	}{
		{4, zcSBase + 4, "sender page 0 kept its fill"},
		{mem.PageSize + 8, 0xAAAA, "sender's post-transfer store landed"},
		{3*mem.PageSize + 12, 0xBBBB, "sender's copied-page store landed"},
		{rOff, 0x77, "receiver's page-0 break landed"},
		{rOff + 4, zcSBase + 4, "received page 0 carries the payload"},
		{rOff + mem.PageSize + 8, zcSBase + mem.PageSize + 8, "receiver kept pre-break page 1"},
		{rOff + 2*mem.PageSize + 16, 0x2222, "receiver's page-2 break landed"},
		{rOff + 2*mem.PageSize + 20, 0, "demand-zero source page arrived as zeros"},
		{2 * zcPages * mem.PageSize, zcSBase + 4, "reply delivered"},
	}
	for _, c := range checks {
		if got := leWord(memory[c.off:]); got != c.want {
			t.Fatalf("%s: word at %#x = %#x, want %#x", c.what, c.off, got, c.want)
		}
	}
}

// zcFlags are the paths the bulk RPC takes.
var zcFlags = []equiv.Flag{equiv.FastPath, equiv.ThreadedCode, equiv.IPCFastPath, equiv.ZeroCopy}

func TestZeroCopyEquivalence(t *testing.T) {
	equiv.Check(t, equiv.Scenario{Flags: zcFlags, Fires: []string{"ZeroCopyShares", "ZeroCopyCOWBreaks"},
		Run: func(t *testing.T, r *equiv.Run) *equiv.Digest { return runZeroCopyBulk(t, r, false) }})
}

func TestZeroCopyPagerEquivalence(t *testing.T) {
	equiv.Check(t, equiv.Scenario{Flags: zcFlags, Fires: []string{"ZeroCopyShares", "ZeroCopyCOWBreaks"},
		Run: func(t *testing.T, r *equiv.Run) *equiv.Digest { return runZeroCopyBulk(t, r, true) }})
}
