package core_test

// Tests for the cycle-accurate profiler and causal IPC spans (PR 6).
//
// The load-bearing invariant is double-entry accounting: the profiler is
// fed by mirroring the exact cycle counts at the seven Stats charge sites,
// so the attributed total must equal Stats.TotalCycles to the cycle — any
// charge site that forgets the mirror (or mirrors a different amount)
// breaks the equality. The equivalence harness checks it on every
// profiled run (equiv.Take), and checks that enabling the profiler leaves
// every other digest field bit-identical (equiv.Profiler).

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/equiv"
	"repro/internal/profile"
	"repro/internal/prog"
	"repro/internal/trace"
)

// TestProfilerAttributesIPCPaths: a syscall-heavy echo workload must show
// up in the profile — samples tagged with ipc_* syscalls, the IPC copy
// path, and the syscall entry path all present, and the pprof encoding
// round-trips through the decoder with the same total.
func TestProfilerAttributesIPCPaths(t *testing.T) {
	cfg := core.Configurations()[0]
	cfg.EnableProfiler = true
	// The fast path carries the 1-word echo messages in registers with no
	// per-word charge, leaving nothing for PathIPCCopy to attribute; turn
	// it off so the copy loop pays (and the profiler sees) CycCopyWord.
	cfg.DisableIPCFastPath = true
	snap := runSeed(t, &equiv.Run{Config: cfg}, 7).Profile
	var sawIPCSys, sawCopy, sawEntry bool
	for _, s := range snap.Samples {
		if len(s.SysName()) > 4 && s.SysName()[:4] == "ipc_" {
			sawIPCSys = true
		}
		if s.Path == profile.PathIPCCopy {
			sawCopy = true
		}
		if s.Path == profile.PathSyscallEntry {
			sawEntry = true
		}
	}
	if !sawIPCSys || !sawCopy || !sawEntry {
		t.Fatalf("missing attribution: ipcSys=%v copy=%v entry=%v", sawIPCSys, sawCopy, sawEntry)
	}
	var pbuf bytes.Buffer
	if err := snap.WritePprof(&pbuf); err != nil {
		t.Fatal(err)
	}
	dec, err := profile.DecodePprof(pbuf.Bytes())
	if err != nil {
		t.Fatalf("pprof round-trip: %v", err)
	}
	var decTotal uint64
	for _, d := range dec {
		decTotal += uint64(d.Cycles)
	}
	if decTotal != snap.TotalCycles() {
		t.Fatalf("decoded total %d != snapshot total %d", decTotal, snap.TotalCycles())
	}
}

// TestIPCSpanFlowEvents runs a three-round echo RPC with spans enabled
// and checks the causal chain: every span begins exactly once and ends
// exactly once, with its begin first and end last, and the client→server
// hop (copy or wake) appears in between on the request spans.
func TestIPCSpanFlowEvents(t *testing.T) {
	cfg := core.Config{Model: core.ModelInterrupt, EnableIPCSpans: true}
	e := newEnv(t, cfg)
	e.k.Tracer = trace.NewRing(1 << 16)
	bindIPC(t, e.k, e.s, e.s)

	const (
		sbuf = dataBase + 0x100
		rbuf = dataBase + 0x200
		ebuf = dataBase + 0x300
		erep = dataBase + 0x380
	)
	b := prog.New(codeBase)
	b.Label("echo").
		IPCWaitReceive(ebuf, 2, psVA).
		Label("echo.loop").
		Movi(4, ebuf).Ld(5, 4, 0).Add(5, 5, 5).
		Movi(4, erep).St(4, 0, 5).
		IPCReplyWaitReceive(erep, 1, psVA, ebuf, 2).
		Jmp("echo.loop")
	b.Label("client")
	for i := 0; i < 3; i++ {
		b.Movi(4, sbuf).Movi(5, uint32(100+i)).St(4, 0, 5).
			IPCClientConnectSendOverReceive(sbuf, 1, refVA, rbuf, 1).
			IPCClientDisconnect()
	}
	b.Halt()
	img := b.MustAssemble()
	if _, err := e.k.LoadImage(e.s, codeBase, img); err != nil {
		t.Fatal(err)
	}
	e.spawnAt(b.Addr("echo"), 12)
	cl := e.spawnAt(b.Addr("client"), 10)
	e.run(t, 1_000_000_000, cl)

	type spanStat struct {
		begins, ends, hops int
		firstBegin         bool // FlowBegin was this span's first event
	}
	spans := map[uint32]*spanStat{}
	for _, ev := range e.k.Tracer.Events() {
		if ev.Kind != trace.Flow {
			continue
		}
		st := spans[ev.A]
		if st == nil {
			st = &spanStat{firstBegin: ev.B == trace.FlowBegin}
			spans[ev.A] = st
		}
		switch ev.B {
		case trace.FlowBegin:
			st.begins++
		case trace.FlowEnd:
			st.ends++
			if st.begins != 1 {
				t.Fatalf("span %d ended with %d begins", ev.A, st.begins)
			}
		case trace.FlowCopy, trace.FlowWake, trace.FlowHandoff, trace.FlowSteal:
			st.hops++
		}
	}
	if len(spans) < 3 {
		t.Fatalf("expected at least 3 spans (one per RPC round), got %d", len(spans))
	}
	hopSpans := 0
	for id, st := range spans {
		if st.begins != 1 || st.ends != 1 {
			t.Errorf("span %d: begins=%d ends=%d (want 1/1)", id, st.begins, st.ends)
		}
		if !st.firstBegin {
			t.Errorf("span %d: first flow event was not FlowBegin", id)
		}
		if st.hops > 0 {
			hopSpans++
		}
	}
	if hopSpans == 0 {
		t.Fatal("no span recorded a copy/wake/handoff hop; propagation is broken")
	}

	// Spans must not leak: no thread still owns one after quiescence.
	for _, th := range e.k.Threads() {
		if th.Span != 0 && th.SpanOwner {
			t.Fatalf("thread %d still owns span %d after quiescence", th.ID, th.Span)
		}
	}
}
