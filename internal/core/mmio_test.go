package core_test

// Driver spaces on the host fast paths. A space with a device register
// window runs decoded and fused code and copies through page windows like
// any other; only the register pages themselves stay on the word path.
// These tests pin that nothing the guest, the device or virtual time can
// observe depends on it.

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/mmu"
	"repro/internal/obj"
	"repro/internal/prog"
	"repro/internal/sys"
	"repro/internal/trace"
)

const mmioVA = 0x00D0_0000

// devAccess is one register access a recDev saw, and when.
type devAccess struct {
	Write    bool
	Off, Val uint32
	At       uint64 // the CPU clock during the access
}

// recDev records every register access in order. A read returns a value
// that depends on how many accesses came before it, so a reordered,
// dropped or repeated device access changes what the guest computes.
type recDev struct {
	k       *core.Kernel
	log     []devAccess
	onFirst func() // runs just before the first access is logged
}

func (d *recDev) IORead32(off uint32) uint32 {
	v := uint32(len(d.log)+1)*0x9E3779B1 ^ off
	d.log = append(d.log, devAccess{Off: off, Val: v, At: d.k.Clock.Now()})
	return v
}

func (d *recDev) IOWrite32(off uint32, v uint32) {
	if len(d.log) == 0 && d.onFirst != nil {
		d.onFirst()
	}
	d.log = append(d.log, devAccess{Write: true, Off: off, Val: v, At: d.k.Clock.Now()})
}

// untimed is the log without its clock readings.
func (d *recDev) untimed() []devAccess {
	out := append([]devAccess(nil), d.log...)
	for i := range out {
		out[i].At = 0
	}
	return out
}

// TestMappingOverDeviceWindowRefused: a mapping may not be laid over a
// register window, from the host or from the guest.
func TestMappingOverDeviceWindowRefused(t *testing.T) {
	e := newEnv(t, core.Config{Model: core.ModelInterrupt})
	if err := e.s.AS.MapIO(mmioVA, mem.PageSize, &recDev{k: e.k}); err != nil {
		t.Fatal(err)
	}
	r, err := e.k.NewBoundRegion(e.s, regVA, 2*mem.PageSize, true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.k.MapInto(e.s, r, mmioVA-mem.PageSize, 0, 2*mem.PageSize, mmu.PermRW); err == nil {
		t.Fatal("MapInto laid a mapping over a device window")
	}
	const mapVA = core.KObjBase + 0x500
	b := prog.New(codeBase)
	b.Movi(2, regVA).Movi(3, mmioVA).Movi(4, mem.PageSize).Movi(5, 0).
		Create(sys.ObjMapping, mapVA).
		Movi(6, dataBase).St(6, 0, 0).
		Movi(2, regVA).Movi(3, mmioVA+mem.PageSize).Movi(4, mem.PageSize).Movi(5, 0).
		Create(sys.ObjMapping, mapVA).
		Movi(6, dataBase).St(6, 4, 0).
		Halt()
	e.run(t, 100_000_000, e.spawn(t, b, 10))
	if got := sys.Errno(e.word(t, dataBase)); got != sys.EINVAL {
		t.Fatalf("guest mapping over the window: errno %v, want EINVAL", got)
	}
	if got := sys.Errno(e.word(t, dataBase+4)); got != sys.EOK {
		t.Fatalf("guest mapping beside the window: errno %v", got)
	}
}

// runMMIOGuest runs a driver-shaped thread — register loads and stores
// between memory traffic, a fusable hot loop, a store that rewrites an
// instruction it already ran, a sleep and a null syscall per pass — beside
// a compute thread that outlives its time slices, so batches end at timer
// deadlines, preemptions and syscalls. It returns the two threads' memory,
// the device and the kernel.
func runMMIOGuest(t *testing.T, cfg core.Config) ([]byte, *recDev, *core.Kernel) {
	t.Helper()
	const (
		areaA  = dataBase + 0x1000
		areaB  = dataBase + 0x2000
		passes = 10
	)
	e := newEnv(t, cfg)
	dev := &recDev{k: e.k}
	if err := e.s.AS.MapIO(mmioVA, mem.PageSize, dev); err != nil {
		t.Fatal(err)
	}
	// R6 is the pass counter; syscalls clobber R1-R5, so the digest (R2)
	// lives in memory across them.
	b := prog.New(codeBase)
	b.Movi(6, 0).Movi(2, 0).
		Label("pass").
		Movi(4, mmioVA).Movi(5, areaA).
		Ld(1, 4, 0x10).St(5, 0, 1).Add(2, 2, 1).St(4, 0x04, 2).
		Movi(1, 0).Movi(3, 7).Movi(0, 3000).
		Label("hot").Add(1, 1, 3).Blt(1, 0, "hot").
		St(5, 4, 1).
		Label("patch").Movi(3, 1).St(4, 0x08, 3).
		Movi(1, b.Addr("patch")+4).Addi(3, 6, 0x50).St(1, 0, 3).
		St(5, 8, 2).
		ThreadSleepUS(15).
		Null().
		Movi(4, mmioVA).Movi(5, areaA).Ld(2, 5, 8).
		Ld(1, 4, 0x14).Xor(2, 2, 1).
		Addi(6, 6, 1).Movi(0, passes).Blt(6, 0, "pass").
		St(4, 0x04, 2).St(5, 12, 2).
		Halt()
	b.Label("spin").Movi(6, 0).
		Label("spin.pass").
		Movi(1, 0).Movi(3, 3).Movi(0, 90_000).
		Label("spin.hot").Add(1, 1, 3).Blt(1, 0, "spin.hot").
		Movi(5, areaB).Movi(4, 2).Shl(4, 6, 4).Add(5, 5, 4).St(5, 0, 1).
		SchedYield().
		Addi(6, 6, 1).Movi(0, 6).Blt(6, 0, "spin.pass").
		Halt()
	if _, err := e.k.LoadImage(e.s, codeBase, b.MustAssemble()); err != nil {
		t.Fatal(err)
	}
	drv := e.spawnAt(codeBase, 10)
	spin := e.spawnAt(b.Addr("spin"), 10)
	e.run(t, 4_000_000_000, drv, spin)
	var out []byte
	for _, area := range []uint32{areaA, areaB} {
		m, err := e.k.ReadMem(e.s, area, 64)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, m...)
	}
	if want := 4*passes + 1; len(dev.log) != want {
		t.Fatalf("%d device accesses, want %d", len(dev.log), want)
	}
	return out, dev, e.k
}

// TestMMIOSpaceKernelEquivalence runs the driver-shaped guest through a
// whole kernel under the five paper configurations, each with the default
// tiers, with threaded code off and with all fast paths off. Within a
// configuration memory, Stats, the final clock and the device's access log
// must be bit-identical — including the clock reading at each access
// between the two batching variants, which share batch boundaries — and
// across configurations the guest-visible results must agree, as in
// TestModelEquivalence.
func TestMMIOSpaceKernelEquivalence(t *testing.T) {
	var firstMem []byte
	var firstLog []devAccess
	forEachConfig(t, func(t *testing.T, cfg core.Config) {
		onMem, onDev, onK := runMMIOGuest(t, cfg)
		if es := onK.ExecStats(); es.BlockHits == 0 || es.StaleResets == 0 {
			t.Fatalf("exec stats %+v: the driver space did not run fused, self-invalidating code", es)
		}
		for _, v := range []struct {
			name  string
			apply func(*core.Config)
			timed bool
		}{
			{"threaded code off", func(c *core.Config) { c.DisableThreadedCode = true }, true},
			{"fast paths off", func(c *core.Config) { c.DisableFastPath = true }, false},
		} {
			off := cfg
			v.apply(&off)
			offMem, offDev, offK := runMMIOGuest(t, off)
			if !bytes.Equal(onMem, offMem) {
				t.Errorf("%s: guest memory differs", v.name)
			}
			if on, off := onK.Clock.Now(), offK.Clock.Now(); on != off {
				t.Errorf("%s: virtual time differs: %d vs %d", v.name, on, off)
			}
			if !reflect.DeepEqual(onK.Stats(), offK.Stats()) {
				t.Errorf("%s: Stats differ:\non:  %+v\noff: %+v", v.name, onK.Stats(), offK.Stats())
			}
			if !reflect.DeepEqual(onDev.untimed(), offDev.untimed()) {
				t.Errorf("%s: device access log differs", v.name)
			}
			if v.timed && !reflect.DeepEqual(onDev.log, offDev.log) {
				t.Errorf("%s: device accesses happened at different clock readings", v.name)
			}
		}
		if firstMem == nil {
			firstMem, firstLog = onMem, onDev.untimed()
		}
		if !bytes.Equal(onMem, firstMem) || !reflect.DeepEqual(onDev.untimed(), firstLog) {
			t.Errorf("guest-visible results differ from %s", allConfigs()[0].Name())
		}
	})
}

// deviceBoundaryRun is what TestCopyWordsAtDeviceBoundary compares.
type deviceBoundaryRun struct {
	cliMem, loMem, hiMem []byte
	log                  []devAccess
	faults               [][2]uint32 // (VA, class|side<<8) of every fault, in order
	stats                core.Stats
	now                  uint64
	loGen                uint64 // store generation of the page below the window after RPC 1's memory words
}

// runDeviceBoundary drives three RPCs whose buffers cross between ordinary
// pages and a register window in the server space:
//
//  1. the request runs from the page below the window into it (300 memory
//     words, then 6 register writes); the reply is sourced from the last
//     4 of those words and 5 register reads;
//  2. the request starts inside the window and runs off its end into an
//     untouched demand-zero page — 3 register writes, then a soft fault,
//     then 5 memory words — so the restart must not repeat the device
//     words; the reply is sourced the same way round;
//  3. three page-aligned pages land on the page below, the window itself
//     and the page above, so the zero-copy path shares the outer two and
//     demotes the middle one to 1024 register writes.
func runDeviceBoundary(t *testing.T, cfg core.Config) deviceBoundaryRun {
	t.Helper()
	const (
		pg     = mem.PageSize
		loVA   = mmioVA - pg
		hiVA   = mmioVA + pg
		loHand = core.KObjBase + 0x600
		hiHand = core.KObjBase + 0x604
		memA   = 300
		reqBuf = dataBase + 0x4000 // page-aligned, 3 pages
		repBuf = dataBase + 0x8000
	)
	k := core.New(cfg)
	t.Cleanup(k.Shutdown)
	k.Tracer = trace.NewRing(1 << 16)
	srv, cli := k.NewSpace(), k.NewSpace()
	bindIPC(t, k, srv, cli)
	dev := &recDev{k: k}
	if err := srv.AS.MapIO(mmioVA, pg, dev); err != nil {
		t.Fatal(err)
	}
	mapPage := func(s *obj.Space, hand, va, size uint32) *mmu.Region {
		r, err := k.NewBoundRegion(s, hand, size, true)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := k.MapInto(s, r, va, 0, size, mmu.PermRW); err != nil {
			t.Fatal(err)
		}
		return r.R
	}
	lo := mapPage(srv, loHand, loVA, pg)
	var out deviceBoundaryRun
	dev.onFirst = func() { out.loGen = lo.FrameAt(0).Gen }
	hi := mapPage(srv, hiHand, hiVA, pg)
	cliData := mapPage(cli, kernelDataHandle(), dataBase, dataSize)
	req := make([]byte, 3*pg)
	for i := range req {
		req[i] = boundaryReqByte(i)
	}
	if err := k.WriteMem(cli, reqBuf, req); err != nil {
		t.Fatal(err)
	}

	sp := prog.New(codeBase)
	sp.IPCWaitReceive(mmioVA-memA*4, memA+6, psVA).
		IPCReplyWaitReceive(mmioVA-16, 4+5, psVA, hiVA-12, 3+5).
		IPCReplyWaitReceive(hiVA-8, 2+5, psVA, loVA, 3*pg/4).
		IPCReplyWaitReceive(loVA, 1, psVA, loVA, 1).
		Halt()
	cp := prog.New(codeBase)
	cp.IPCClientConnectSendOverReceive(reqBuf+0x100, memA+6, refVA, repBuf, 16).
		Movi(6, dataBase).St(6, 0, 0).
		IPCClientDisconnect().
		IPCClientConnectSendOverReceive(reqBuf+0x700, 3+5, refVA, repBuf+0x100, 16).
		Movi(6, dataBase).St(6, 4, 0).
		IPCClientDisconnect().
		IPCClientConnectSendOverReceive(reqBuf, 3*pg/4, refVA, repBuf+0x200, 16).
		Movi(6, dataBase).St(6, 8, 0).
		IPCClientDisconnect().
		Halt()
	if _, err := k.SpawnProgram(srv, codeBase, sp.MustAssemble(), 12); err != nil {
		t.Fatal(err)
	}
	client, err := k.SpawnProgram(cli, codeBase, cp.MustAssemble(), 10)
	if err != nil {
		t.Fatal(err)
	}
	k.RunFor(2_000_000_000)
	if !client.Exited {
		t.Fatalf("client did not finish (pc=%#x state=%v)", client.Regs.PC, client.State)
	}

	out.log, out.stats, out.now = dev.untimed(), k.Stats(), k.Clock.Now()
	pages := func(r *mmu.Region) []byte {
		var b []byte
		for _, f := range r.Frames() {
			if f == nil {
				b = append(b, make([]byte, pg)...)
			} else {
				b = append(b, f.Data...)
			}
		}
		return b
	}
	out.cliMem, out.loMem, out.hiMem = pages(cliData), pages(lo), pages(hi)
	for _, ev := range k.Tracer.Events() {
		if ev.Kind == trace.Fault {
			out.faults = append(out.faults, [2]uint32{ev.A, ev.B})
		}
	}
	if k.Tracer.Dropped() != 0 {
		t.Fatal("trace ring overflowed")
	}
	for i := uint32(0); i < 3; i++ {
		if got := sys.Errno(leWord(out.cliMem[4*i:])); got != sys.EOK {
			t.Fatalf("RPC %d errno %v", i+1, got)
		}
	}
	return out
}

// boundaryReqByte is byte i of the client's request buffer.
func boundaryReqByte(i int) byte { return byte(i*13 + i>>8 + 1) }

func leWord(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

// TestCopyWordsAtDeviceBoundary: IPC transfers whose buffers run from an
// ordinary page into a register window, out of one, and across one. Every
// device word goes through the handler exactly once, in order; the ordinary
// part moves through page windows; and memory on both sides, every fault's
// VA and class, Stats (restart causes, charged cycles) and the clock match
// a run with the fast paths off.
func TestCopyWordsAtDeviceBoundary(t *testing.T) {
	const pg = mem.PageSize
	forEachConfig(t, func(t *testing.T, cfg core.Config) {
		on := runDeviceBoundary(t, cfg)
		offCfg := cfg
		offCfg.DisableFastPath = true
		off := runDeviceBoundary(t, offCfg)

		// What the device must have seen, from the request bytes alone.
		word := func(off uint32) uint32 { // request word at byte offset off of reqBuf
			var b [4]byte
			for j := range b {
				b[j] = boundaryReqByte(int(off) + j)
			}
			return leWord(b[:])
		}
		var want []devAccess
		read := func(off uint32) {
			want = append(want, devAccess{Off: off, Val: uint32(len(want)+1)*0x9E3779B1 ^ off})
		}
		for i := uint32(0); i < 6; i++ { // RPC 1 request tail
			want = append(want, devAccess{Write: true, Off: 4 * i, Val: word(0x100 + 4*(300+i))})
		}
		for i := uint32(0); i < 5; i++ { // RPC 1 reply tail
			read(4 * i)
		}
		for i := uint32(0); i < 3; i++ { // RPC 2 request head
			want = append(want, devAccess{Write: true, Off: pg - 12 + 4*i, Val: word(0x700 + 4*i)})
		}
		for i := uint32(0); i < 2; i++ { // RPC 2 reply head
			read(pg - 8 + 4*i)
		}
		for i := uint32(0); i < pg/4; i++ { // RPC 3 middle page
			want = append(want, devAccess{Write: true, Off: 4 * i, Val: word(pg + 4*i)})
		}
		if !reflect.DeepEqual(on.log, want) {
			t.Fatalf("device saw %d accesses, want %d; first difference at %s", len(on.log), len(want), firstDiff(on.log, want))
		}
		// The client got memory words and register reads back, in order.
		const repOff = 0x8000
		if got, want := leWord(on.cliMem[repOff+12:]), word(0x100+4*299); got != want {
			t.Errorf("reply 1 word 3 = %#x, want the request's word 299 (%#x)", got, want)
		}
		if got, want := leWord(on.cliMem[repOff+16:]), want[6].Val; got != want {
			t.Errorf("reply 1 word 4 = %#x, want the first register read (%#x)", got, want)
		}
		if got, want := leWord(on.cliMem[repOff+0x100+8:]), word(0x700+4*3); got != want {
			t.Errorf("reply 2 word 2 = %#x, want the first memory word above the window (%#x)", got, want)
		}

		if !reflect.DeepEqual(on.log, off.log) {
			t.Errorf("device log differs with fast paths off; first difference at %s", firstDiff(on.log, off.log))
		}
		if !bytes.Equal(on.cliMem, off.cliMem) || !bytes.Equal(on.loMem, off.loMem) || !bytes.Equal(on.hiMem, off.hiMem) {
			t.Error("memory differs with fast paths off")
		}
		if !reflect.DeepEqual(on.faults, off.faults) {
			t.Errorf("fault sequence differs with fast paths off:\non:  %x\noff: %x", on.faults, off.faults)
		}
		if !reflect.DeepEqual(on.stats, off.stats) {
			t.Errorf("Stats differ with fast paths off:\non:  %+v\noff: %+v", on.stats, off.stats)
		}
		if on.now != off.now {
			t.Errorf("virtual time differs with fast paths off: %d vs %d", on.now, off.now)
		}
		softAbove := false
		for _, f := range on.faults {
			softAbove = softAbove || (f[0] == mmioVA+pg && mmu.FaultClass(f[1]&0xFF) == mmu.FaultSoft)
		}
		if !softAbove {
			t.Errorf("no soft fault at the page above the window in %x: RPC 2 never restarted after its device words", on.faults)
		}
		// Page windows bump the store generation once per run, the word
		// loop once per word: the page below the window took 300 words of
		// RPC 1 through windows.
		if on.loGen >= 300 || off.loGen < 300 {
			t.Errorf("page below the window: %d store generations with fast paths, %d without; want a few and at least 300", on.loGen, off.loGen)
		}
	})
}

func firstDiff(a, b []devAccess) string {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return fmt.Sprintf("%d: %+v vs %+v", i, a[i], b[i])
		}
	}
	return fmt.Sprintf("%d: lengths %d vs %d", min(len(a), len(b)), len(a), len(b))
}
