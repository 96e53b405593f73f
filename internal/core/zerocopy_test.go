package core_test

// Zero-copy transparency: sharing the sender's frames into the receiver's
// region copy-on-write instead of copying words deliberately changes
// virtual time (that is the optimisation), but nothing a user program can
// observe may differ with the path on vs off — final memory on both sides
// of the transfer (after COW breaks from both the receiver and the
// sender) and the Table 3 restart-cause counts — across all five paper
// configurations × NumCPUs {1,2,4} × both lock models, including a run
// whose receive region is pager-backed and unpopulated so a hard fault
// fires at every page boundary of the shared transfer.

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/core"
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

type zcResult struct {
	memory   []byte // both buffers after all COW breaks settled
	restarts [4]uint64
	faults   map[core.FaultKey]uint64 // COW-class entries removed
	hard     uint64
	shares   uint64
	breaks   uint64
}

// runZeroCopyBulk runs one 4-page RPC: the client fills the first two
// pages of its send buffer (the rest stays demand-zero and is first
// touched by the transfer itself), sends all four pages, and — after the
// reply — stores into shared pages 1 and 3; the server stores
// into received pages 0 and 2 before replying. With pagerBacked the
// receive region starts empty and faults to a pager at every page.
func runZeroCopyBulk(t *testing.T, cfg core.Config, pagerBacked bool) zcResult {
	t.Helper()
	e := newEnv(t, cfg)
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

	var res zcResult
	for _, base := range []uint32{zcSBase, zcRBase} {
		m, err := e.k.ReadMem(e.s, base, zcPages*mem.PageSize)
		if err != nil {
			t.Fatal(err)
		}
		res.memory = append(res.memory, m...)
	}
	ack, err := e.k.ReadMem(e.s, ackBuf, 4)
	if err != nil {
		t.Fatal(err)
	}
	res.memory = append(res.memory, ack...)

	st := e.k.Stats()
	res.restarts = e.k.Metrics.RestartsByCause()
	res.faults = map[core.FaultKey]uint64{}
	for key, n := range st.FaultCount {
		if key.Class == mmu.FaultCOW {
			continue // the COW class exists only with the path on
		}
		res.faults[key] = n
		if key.Class == mmu.FaultHard {
			res.hard += n
		}
	}
	res.shares = st.ZeroCopyShares
	res.breaks = st.ZeroCopyCOWBreaks
	return res
}

// zcSanity pins absolute contents so a bug shared by both paths cannot
// hide in the on-vs-off comparison.
func zcSanity(t *testing.T, r zcResult, tag string) {
	t.Helper()
	word := func(off int) uint32 {
		b := r.memory[off : off+4]
		return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
	}
	const rOff = zcPages * mem.PageSize // receive buffer's offset in res.memory
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
		if got := word(c.off); got != c.want {
			t.Fatalf("%s: %s: word at %#x = %#x, want %#x", tag, c.what, c.off, got, c.want)
		}
	}
}

func TestZeroCopyEquivalence(t *testing.T) {
	totalShares := uint64(0)
	for _, base := range core.Configurations() {
		for _, ncpu := range []int{1, 2, 4} {
			for _, lm := range lockModels {
				cfg := base
				cfg.NumCPUs = ncpu
				cfg.LockModel = lm
				t.Run(fmt.Sprintf("%s/cpus=%d/%s", base.Name(), ncpu, lm), func(t *testing.T) {
					for _, pager := range []bool{false, true} {
						tag := "demand-zero"
						if pager {
							tag = "pager-backed"
						}
						on := runZeroCopyBulk(t, cfg, pager)
						off := cfg
						off.DisableZeroCopy = true
						offR := runZeroCopyBulk(t, off, pager)

						zcSanity(t, on, tag+"/on")
						zcSanity(t, offR, tag+"/off")
						if !bytes.Equal(on.memory, offR.memory) {
							t.Fatalf("%s: observable memory differs with zero-copy on vs off", tag)
						}
						if on.restarts != offR.restarts {
							t.Fatalf("%s: Table 3 restart causes differ: on=%v off=%v",
								tag, on.restarts, offR.restarts)
						}
						for key, want := range offR.faults {
							if got := on.faults[key]; got != want {
								t.Fatalf("%s: fault count %v differs: on=%d off=%d",
									tag, key, got, want)
							}
						}
						for key := range on.faults {
							if _, ok := offR.faults[key]; !ok {
								t.Fatalf("%s: fault class %v only with zero-copy on", tag, key)
							}
						}
						if on.shares == 0 {
							t.Fatalf("%s: no pages were shared; the comparison is vacuous", tag)
						}
						if on.breaks == 0 {
							t.Fatalf("%s: no COW break fired; the comparison is vacuous", tag)
						}
						if offR.shares != 0 || offR.breaks != 0 {
							t.Fatalf("%s: disabled run shared %d pages, broke %d",
								tag, offR.shares, offR.breaks)
						}
						if pager && on.hard < zcPages {
							t.Fatalf("pager-backed run took %d hard faults, want one per page (%d)",
								on.hard, zcPages)
						}
						totalShares += on.shares
					}
				})
			}
		}
	}
	if totalShares == 0 {
		t.Fatal("no share fired anywhere in the matrix; the test is vacuous")
	}
}
