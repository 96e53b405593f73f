package core_test

// Fault-during-handoff: a register-carried fast-path transfer that takes a
// hard (pager-backed) fault mid-copy must unwind to the slow path with the
// thread's rolled-forward registers consistent, wait for the pager, and
// restart — leaving every user-visible artifact (received payload, reply,
// Table 3 fault/restart accounting) bit-identical to a run that never took
// the fast path (Config.DisableIPCFastPath). The fault is driven through
// every word offset of the message by sliding the receive buffer across a
// page boundary into an unpopulated pager-backed page.

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/equiv"
	"repro/internal/mem"
	"repro/internal/mmu"
	"repro/internal/obj"
	"repro/internal/prog"
	"repro/internal/sys"
)

// runHandoffFault runs one FastMsgWords-word RPC whose receive buffer
// crosses into an unpopulated pager-backed page at word wordOff, so the
// copy hard-faults exactly there, and digests the outcome: the words landed
// in the server's buffer and the reply (the last word, echoed back). The
// pager's handle slots (pgPortVA/pgPsVA) are shared with
// fastpath_core_test.go.
func runHandoffFault(t *testing.T, cfg core.Config, wordOff int) *equiv.Digest {
	t.Helper()
	e := newEnv(t, cfg)
	e.k.EnableMetrics()
	bindIPC(t, e.k, e.s, e.s)

	// The pager pair servicing the region's hard faults.
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

	// Two pager-backed pages at pBase; nothing populated until the pager
	// services a fault.
	const pBase = 0x0100_0000
	reg, err := e.k.NewBoundRegion(e.s, regVA, 2*mem.PageSize, false)
	if err != nil {
		t.Fatal(err)
	}
	e.k.AttachPager(reg, pgPort)
	if _, err := e.k.MapInto(e.s, reg, pBase, 0, 2*mem.PageSize, mmu.PermRW); err != nil {
		t.Fatal(err)
	}

	// Words [0, wordOff) of the receive buffer sit on page 0 (populated by
	// the server's pre-touch below); word wordOff is the first byte of
	// page 1 and hard-faults mid-copy.
	rbuf := uint32(pBase + mem.PageSize - 4*wordOff)
	const (
		repBuf = dataBase + 0x300 // server's reply staging word
		sbuf   = dataBase + 0x100 // client's send buffer
		ackBuf = dataBase + 0x200 // client's reply landing word
	)

	// Echo server: pre-touch page 0, then serve. The receive count is one
	// past the message so the receive completes on the client's
	// message-end, and the reply (the last payload word) is staged in
	// ordinary memory so a retried reply would be idempotent.
	srv := prog.New(codeBase)
	srv.Movi(4, pBase).Movi(5, 0x5a).St(4, 0, 5).
		IPCWaitReceive(rbuf, core.FastMsgWords+1, psVA).
		Label("srv.loop").
		Movi(4, rbuf).Ld(5, 4, uint32(4*(core.FastMsgWords-1))).
		Movi(4, repBuf).St(4, 0, 5).
		IPCReplyWaitReceive(repBuf, 1, psVA, rbuf, core.FastMsgWords+1).
		Jmp("srv.loop")

	// Pager: service fault notifications (two-word messages: offset, kind)
	// by allocating the faulted page.
	const fmBuf = dataBase + 0x400
	pager := prog.New(codeBase + 0x8000)
	pager.Label("pg.loop").
		IPCWaitReceive(fmBuf, 2, pgPsVA).
		Movi(1, regVA).
		Movi(4, fmBuf).Ld(2, 4, 0).
		Movi(3, 1).
		Syscall(sys.NMemAllocate).
		Jmp("pg.loop")

	// Client: send FastMsgWords known words, receive the one-word reply.
	cli := prog.New(codeBase + 0x4000)
	for j := uint32(0); j < core.FastMsgWords; j++ {
		cli.Movi(4, sbuf+4*j).Movi(5, 0x1010+7*j).St(4, 0, 5)
	}
	cli.IPCClientConnectSendOverReceive(sbuf, core.FastMsgWords, refVA, ackBuf, 1).
		IPCClientDisconnect().
		Halt()

	if _, err := e.k.LoadImage(e.s, srv.Base(), srv.MustAssemble()); err != nil {
		t.Fatal(err)
	}
	if _, err := e.k.LoadImage(e.s, pager.Base(), pager.MustAssemble()); err != nil {
		t.Fatal(err)
	}
	e.spawnAt(pager.Base(), 15) // pager above everything
	e.spawnAt(srv.Base(), 12)
	client := e.spawn(t, cli, 10)
	e.run(t, 400_000_000, client)

	d := equiv.Take(t, e.k)
	d.Mem = []equiv.Range{equiv.Read(t, e.k, e.s, "payload", rbuf, 4*core.FastMsgWords), equiv.Read(t, e.k, e.s, "reply", ackBuf, 4)}
	return d
}

func TestFastPathFaultDuringHandoff(t *testing.T) {
	forEachConfig(t, func(t *testing.T, cfg core.Config) {
		for wordOff := 0; wordOff < core.FastMsgWords; wordOff++ {
			on := runHandoffFault(t, cfg, wordOff)
			off := cfg
			off.DisableIPCFastPath = true
			offR := runHandoffFault(t, off, wordOff)

			// The transfer must have arrived intact, and everything the
			// guest or Table 3 can see must match the run without handoffs.
			for j := 0; j < core.FastMsgWords; j++ {
				if got, want := leWord(on.Mem[0].Bytes[4*j:]), uint32(0x1010+7*j); got != want {
					t.Fatalf("off=%d word %d = %#x, want %#x (fast path on)", wordOff, j, got, want)
				}
			}
			if got, want := leWord(on.Mem[1].Bytes), uint32(0x1010+7*(core.FastMsgWords-1)); got != want {
				t.Fatalf("off=%d reply %#x, want %#x", wordOff, got, want)
			}
			if diff := equiv.Diff(on, offR, equiv.Guest); diff != "" {
				t.Fatalf("off=%d fast path on vs off: %s", wordOff, diff)
			}
			// Rollback cycles are the cost of re-doing charged copy work;
			// register-carried words are never charged, so the fast path
			// may only shrink them — never grow them.
			for key, offCyc := range offR.Stats.FaultRollback {
				if onCyc := on.Stats.FaultRollback[key]; onCyc > offCyc {
					t.Fatalf("off=%d rollback grew with fast path on: %v on=%d off=%d",
						wordOff, key, onCyc, offCyc)
				}
			}
			// The runs must actually have hard-faulted (pre-touch on page
			// 0 plus the mid-transfer fault on page 1) ...
			var hard uint64
			for k, n := range on.Stats.FaultCount {
				if k.Class == mmu.FaultHard {
					hard += n
				}
			}
			if hard < 2 {
				t.Fatalf("off=%d only %d hard faults; the transfer never faulted", wordOff, hard)
			}
			// ... through the register-carried path when it was enabled.
			if on.Stats.FastpathFallbacks == 0 {
				t.Fatalf("off=%d fast path never fell back; fault missed the register-carried copy", wordOff)
			}
			if n := offR.Stats.FastpathFallbacks; n != 0 {
				t.Fatalf("off=%d disabled run counted %d fallbacks", wordOff, n)
			}
		}
	})
}

// TestFastPathPriorityGuard: a direct handoff never jumps the run queue.
// The client's send completes the server's receive while a thread of equal
// or higher priority than the server is queued; the queued thread must run
// before the server does.
func TestFastPathPriorityGuard(t *testing.T) {
	const (
		seq  = dataBase + 0x100 // shared run-order counter
		qRan = dataBase + 0x104 // the queued thread's turn
		sRan = dataBase + 0x108 // the server's turn
		sbuf = dataBase + 0x200
		rbuf = dataBase + 0x300
		ebuf = dataBase + 0x400
	)
	// mark stores the next turn number at slot (one CPU: no interleaving).
	mark := func(b *prog.Builder, slot uint32) *prog.Builder {
		return b.Movi(4, seq).Ld(5, 4, 0).Addi(5, 5, 1).St(4, 0, 5).Movi(4, slot).St(4, 0, 5)
	}
	for _, srvPrio := range []int{10, 8} {
		t.Run(fmt.Sprintf("server=%d", srvPrio), func(t *testing.T) {
			forEachConfig(t, func(t *testing.T, cfg core.Config) {
				e := newEnv(t, cfg)
				bindIPC(t, e.k, e.s, e.s)
				b := prog.New(codeBase)
				b.Label("srv").IPCWaitReceive(ebuf, 2, psVA)
				mark(b, sRan).IPCReplyWaitReceive(ebuf, 1, psVA, ebuf, 2).Halt()
				b.Label("cli").IPCClientConnectSendOverReceive(sbuf, 1, refVA, rbuf, 1).IPCClientDisconnect().Halt()
				mark(b.Label("queued"), qRan).Halt()
				if _, err := e.k.LoadImage(e.s, codeBase, b.MustAssemble()); err != nil {
					t.Fatal(err)
				}
				e.spawnAt(b.Addr("srv"), srvPrio)
				e.k.RunFor(100_000) // the server blocks in its receive
				cli := e.spawnAt(b.Addr("cli"), 10)
				queued := e.spawnAt(b.Addr("queued"), 10)
				e.run(t, 100_000_000, cli, queued)
				if q, s := e.word(t, qRan), e.word(t, sRan); q != 1 || s != 2 {
					t.Fatalf("server at priority %d ran turn %d, the queued priority-10 thread turn %d", srvPrio, s, q)
				}
				if e.k.Stats().FastpathFallbacks == 0 {
					t.Fatal("no handoff was demoted to the run queue")
				}
			})
		})
	}
}
