package dev_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/dev"
	"repro/internal/mem"
	"repro/internal/mmu"
	"repro/internal/obj"
	"repro/internal/prog"
	"repro/internal/sys"
)

// --- Unit tests against the bare device (no kernel). ---

type devRig struct {
	clk   *clock.Clock
	d     *dev.BlockDevice
	irqs  int
	alloc *mem.Allocator
	dma   *mmu.Region
}

func newRig(t *testing.T, sectors int) *devRig {
	t.Helper()
	r := &devRig{clk: clock.New(), alloc: mem.NewAllocator(64)}
	r.dma = mmu.NewRegion(mem.PageSize, true)
	r.d = dev.New(r.clk, r.alloc, sectors, r.dma, 1000, func() { r.irqs++ })
	return r
}

func TestDeviceReadDMA(t *testing.T) {
	r := newRig(t, 8)
	want := bytes.Repeat([]byte{0xA5}, dev.SectorSize)
	if err := r.d.LoadMedium(3, want); err != nil {
		t.Fatal(err)
	}
	r.d.IOWrite32(dev.RegSector, 3)
	r.d.IOWrite32(dev.RegCount, 1)
	r.d.IOWrite32(dev.RegDMAOff, 0)
	r.d.IOWrite32(dev.RegCmd, dev.CmdRead)
	if got := r.d.IORead32(dev.RegStatus); got != dev.StatusBusy {
		t.Fatalf("status %d, want busy", got)
	}
	r.clk.Advance(999)
	if r.irqs != 0 {
		t.Fatal("completed early")
	}
	r.clk.Advance(1)
	if r.irqs != 1 {
		t.Fatal("no completion IRQ")
	}
	if got := r.d.IORead32(dev.RegStatus); got != dev.StatusDone {
		t.Fatalf("status %d, want done", got)
	}
	f := r.dma.FrameAt(0)
	if f == nil || !bytes.Equal(f.Data[:dev.SectorSize], want) {
		t.Fatal("DMA data wrong")
	}
	// Ack clears the status.
	r.d.IOWrite32(dev.RegIRQAck, 1)
	if got := r.d.IORead32(dev.RegStatus); got != dev.StatusIdle {
		t.Fatalf("status after ack %d, want idle", got)
	}
	if r.d.Reads != 1 {
		t.Fatalf("Reads=%d", r.d.Reads)
	}
}

func TestDeviceWriteDMA(t *testing.T) {
	r := newRig(t, 8)
	// Put data in the DMA region, write it to sector 5.
	f, _ := r.alloc.Alloc()
	data := r.alloc.Writable(f)
	for i := range data[:dev.SectorSize] {
		data[i] = byte(i)
	}
	r.dma.Populate(0, f)
	r.d.IOWrite32(dev.RegSector, 5)
	r.d.IOWrite32(dev.RegCmd, dev.CmdWrite) // count 0 -> 1
	r.clk.Advance(1000)
	got := r.d.ReadMedium(5, dev.SectorSize)
	if got[0] != 0 || got[17] != 17 || got[255] != 255 {
		t.Fatalf("medium contents wrong: %v...", got[:4])
	}
	if r.d.Writes != 1 {
		t.Fatalf("Writes=%d", r.d.Writes)
	}
}

func TestDeviceErrors(t *testing.T) {
	r := newRig(t, 2)
	// Out-of-range sector.
	r.d.IOWrite32(dev.RegSector, 99)
	r.d.IOWrite32(dev.RegCmd, dev.CmdRead)
	r.clk.Advance(2000)
	if got := r.d.IORead32(dev.RegStatus); got != dev.StatusErr {
		t.Fatalf("status %d, want error", got)
	}
	r.d.IOWrite32(dev.RegIRQAck, 1)
	// Bad command.
	r.d.IOWrite32(dev.RegCmd, 77)
	if got := r.d.IORead32(dev.RegStatus); got != dev.StatusErr {
		t.Fatalf("bad command status %d, want error", got)
	}
	r.d.IOWrite32(dev.RegIRQAck, 1)
	// Command while busy.
	r.d.IOWrite32(dev.RegSector, 0)
	r.d.IOWrite32(dev.RegCmd, dev.CmdRead)
	r.d.IOWrite32(dev.RegCmd, dev.CmdRead)
	if got := r.d.IORead32(dev.RegStatus); got != dev.StatusErr {
		t.Fatalf("busy-collision status %d, want error", got)
	}
	if r.d.Errors != 3 {
		t.Fatalf("Errors=%d, want 3", r.d.Errors)
	}
}

// blockDMAOutside lists guest-written DMA offsets whose transfer does not
// fit a one-page region: past the end, straddling it, and wrapping the
// 32-bit offset space.
var blockDMAOutside = []uint32{mem.PageSize, mem.PageSize - 4, 0xFFFF_FFFC}

// TestDeviceDMAOutsideRegion: a transfer that does not fit the DMA
// region completes with an error, touches neither the region nor the
// medium, and never panics the host.
func TestDeviceDMAOutsideRegion(t *testing.T) {
	for _, off := range blockDMAOutside {
		for _, cmd := range []uint32{dev.CmdRead, dev.CmdWrite} {
			t.Run(fmt.Sprintf("off=%#x/cmd=%d", off, cmd), func(t *testing.T) {
				r := newRig(t, 2)
				medium := bytes.Repeat([]byte{0x5A}, dev.SectorSize)
				if err := r.d.LoadMedium(0, medium); err != nil {
					t.Fatal(err)
				}
				r.d.IOWrite32(dev.RegDMAOff, off)
				r.d.IOWrite32(dev.RegCmd, cmd)
				r.clk.Advance(1000)
				if got := r.d.IORead32(dev.RegStatus); got != dev.StatusErr {
					t.Fatalf("status %d, want error", got)
				}
				if r.d.Errors != 1 || r.d.Reads+r.d.Writes != 0 || r.irqs != 1 {
					t.Fatalf("Errors=%d Reads=%d Writes=%d irqs=%d, want one failed operation",
						r.d.Errors, r.d.Reads, r.d.Writes, r.irqs)
				}
				if r.dma.PresentPages() != 0 {
					t.Fatal("a rejected read populated the DMA region")
				}
				if !bytes.Equal(r.d.ReadMedium(0, dev.SectorSize), medium) {
					t.Fatal("a rejected write changed the medium")
				}
			})
		}
	}
}

// TestDeviceDMABreaksShares: a DMA page shared copy-on-write into a
// receiver (as a zero-copy reply leaves it) is replaced before a sector
// read lands in it, so the receiver keeps reading its own bytes.
func TestDeviceDMABreaksShares(t *testing.T) {
	const va = 0x10_0000
	r := newRig(t, 2)
	if err := r.d.LoadMedium(0, bytes.Repeat([]byte{0xAB}, dev.SectorSize)); err != nil {
		t.Fatal(err)
	}
	f, _ := r.alloc.Alloc()
	data := r.alloc.Writable(f)
	for i := range data {
		data[i] = 0x11
	}
	r.dma.Populate(0, f)
	src, dst := mmu.NewAddrSpace(r.alloc), mmu.NewAddrSpace(r.alloc)
	recv := mmu.NewRegion(mem.PageSize, true)
	if err := src.Map(&mmu.Mapping{Region: r.dma, Base: va, Size: mem.PageSize, Perm: mmu.PermRW}); err != nil {
		t.Fatal(err)
	}
	if err := dst.Map(&mmu.Mapping{Region: recv, Base: va, Size: mem.PageSize, Perm: mmu.PermRW}); err != nil {
		t.Fatal(err)
	}
	if !mmu.ShareCOW(src, va, dst, va) {
		t.Fatal("ShareCOW declined")
	}

	r.d.IOWrite32(dev.RegCmd, dev.CmdRead)
	r.clk.Advance(1000)
	if got := r.d.IORead32(dev.RegStatus); got != dev.StatusDone {
		t.Fatalf("status %d, want done", got)
	}
	if v, flt := dst.Load32(va); flt != nil || v != 0x11111111 {
		t.Fatalf("receiver reads %#x (fault %v), want its own 0x11111111", v, flt)
	}
	if nf := r.dma.FrameAt(0); nf == f || nf.Data[0] != 0xAB || nf.Data[dev.SectorSize] != 0x11 {
		t.Fatal("the DMA page is not a private copy holding the sector over the old bytes")
	}
	if f.Refs != 1 || recv.FrameAt(0) != f {
		t.Fatalf("the receiver's frame has refs=%d, want its own single reference", f.Refs)
	}
}

// FuzzBlockDeviceRegisters lets the input play a hostile driver: it
// writes arbitrary values to every block-device register and advances the
// clock by arbitrary amounts. The device must never panic the host,
// always report one of its four statuses, and never hold more frames than
// its DMA region has pages — an allocator three frames short of the
// region makes some transfers run out of memory.
func FuzzBlockDeviceRegisters(f *testing.F) {
	le := binary.LittleEndian
	reg := func(op byte, v uint32) []byte { return le.AppendUint32([]byte{op}, v) }
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	for _, off := range blockDMAOutside {
		for _, cmd := range []uint32{dev.CmdRead, dev.CmdWrite} {
			f.Add(cat(reg(2, off), reg(3, cmd), reg(5, 1000)))
		}
	}
	// A read across all four pages (the fourth frame is past the
	// allocator's limit), a command while busy, an ack, a write from the
	// last page, and a sector and count that overflow the medium.
	f.Add(cat(reg(1, 32), reg(2, 0), reg(3, dev.CmdRead), reg(3, dev.CmdRead), reg(5, 1000), reg(4, 1),
		reg(2, 3*mem.PageSize), reg(3, dev.CmdWrite), reg(5, 999), reg(5, 1), reg(4, 1),
		reg(0, 0xFFFF_FFFF), reg(1, 0xFFFF_FFFF), reg(3, dev.CmdRead), reg(5, 0xFFFF_FFFF)))

	regs := [5]uint32{dev.RegSector, dev.RegCount, dev.RegDMAOff, dev.RegCmd, dev.RegIRQAck}
	f.Fuzz(func(t *testing.T, script []byte) {
		const pages = 4
		clk, alloc := clock.New(), mem.NewAllocator(pages-1)
		dma := mmu.NewRegion(pages*mem.PageSize, true)
		d := dev.New(clk, alloc, 64, dma, 1000, func() {})
		for len(script) > 0 {
			var b [5]byte // a truncated write reads zeros
			script = script[copy(b[:], script):]
			op, v := b[0]%6, le.Uint32(b[1:])
			if op == 5 {
				clk.Advance(uint64(v))
			} else {
				d.IOWrite32(regs[op], v)
			}
			if st := d.IORead32(dev.RegStatus); st > dev.StatusErr {
				t.Fatalf("status %d", st)
			}
			if alloc.InUse() > alloc.Limit() || alloc.InUse() > dma.Pages() {
				t.Fatalf("%d frames in use, limit %d, region of %d pages", alloc.InUse(), alloc.Limit(), dma.Pages())
			}
		}
	})
}

func TestMMIOWindowSemantics(t *testing.T) {
	r := newRig(t, 2)
	as := mmu.NewAddrSpace(r.alloc)
	if err := as.MapIO(0xD000_0000, mem.PageSize, r.d); err != nil {
		t.Fatal(err)
	}
	if as.IOWindows() != 1 {
		t.Fatal("window not installed")
	}
	// Word access reaches the device.
	if f := as.Store32(0xD000_0000+dev.RegSector, 1); f != nil {
		t.Fatal(f)
	}
	if v, f := as.Load32(0xD000_0000 + dev.RegSector); f != nil || v != 1 {
		t.Fatalf("register readback v=%d f=%v", v, f)
	}
	// Misaligned word access faults.
	if _, f := as.Load32(0xD000_0002); f == nil {
		t.Fatal("misaligned MMIO load did not fault")
	}
	// Overlapping windows rejected.
	if err := as.MapIO(0xD000_0000, mem.PageSize, r.d); err == nil {
		t.Fatal("overlapping IO window accepted")
	}
}

// --- Full-stack integration: client -> IPC -> driver -> MMIO/IRQ/DMA. ---

const (
	cliCode = 0x0001_0000
	cliData = 0x0004_0000
)

func TestDriverServesSectorReads(t *testing.T) {
	for _, cfg := range core.Configurations() {
		cfg := cfg
		t.Run(cfg.Name(), func(t *testing.T) {
			k := core.New(cfg)
			dr, err := dev.Attach(k, 64, 5, 0, 16)
			if err != nil {
				t.Fatal(err)
			}
			// Format sector 7 with a recognizable pattern.
			pattern := make([]byte, dev.SectorSize)
			for i := range pattern {
				pattern[i] = byte(i * 3)
			}
			if err := dr.Device.LoadMedium(7, pattern); err != nil {
				t.Fatal(err)
			}

			// Client space.
			cs := k.NewSpace()
			data := &obj.Region{Header: obj.Header{Type: sys.ObjRegion}, R: mmu.NewRegion(4*mem.PageSize, true)}
			k.BindFresh(cs, data)
			if _, err := k.MapInto(cs, data, cliData, 0, 4*mem.PageSize, mmu.PermRW); err != nil {
				t.Fatal(err)
			}
			refVA := dr.ClientRef(k, cs)

			const (
				req = cliData + 0x100
				rep = cliData + 0x1000
			)
			b := prog.New(cliCode)
			b.Movi(4, req).Movi(5, 7).St(4, 0, 5). // sector 7
								IPCClientConnectSendOverReceive(req, 1, refVA, rep, dev.SectorSize/4).
								Movi(6, cliData).St(6, 0, 0). // RPC errno
								IPCClientDisconnect().
								Halt()
			client, err := k.SpawnProgram(cs, cliCode, b.MustAssemble(), 10)
			if err != nil {
				t.Fatal(err)
			}
			k.RunFor(2_000_000_000)
			if !client.Exited {
				t.Fatalf("client stuck: state=%v pc=%#x driver=%v/%#x",
					client.State, client.Regs.PC, dr.Thread.State, dr.Thread.Regs.PC)
			}
			out, err := k.ReadMem(cs, rep, dev.SectorSize)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(out, pattern) {
				t.Fatalf("sector data corrupted in flight: got %v... want %v...", out[:8], pattern[:8])
			}
			if dr.Device.Reads != 1 {
				t.Fatalf("device reads = %d", dr.Device.Reads)
			}
		})
	}
}

func TestDriverServesManyClients(t *testing.T) {
	k := core.New(core.Config{Model: core.ModelInterrupt, Preempt: core.PreemptPartial})
	dr, err := dev.Attach(k, 64, 5, 0, 16)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 8; s++ {
		sec := make([]byte, dev.SectorSize)
		for i := range sec {
			sec[i] = byte(s)
		}
		if err := dr.Device.LoadMedium(s, sec); err != nil {
			t.Fatal(err)
		}
	}
	// Three clients each read "their" sector several times.
	var clients []*obj.Thread
	spaces := make([]*obj.Space, 3)
	for c := 0; c < 3; c++ {
		cs := k.NewSpace()
		spaces[c] = cs
		data := &obj.Region{Header: obj.Header{Type: sys.ObjRegion}, R: mmu.NewRegion(4*mem.PageSize, true)}
		k.BindFresh(cs, data)
		if _, err := k.MapInto(cs, data, cliData, 0, 4*mem.PageSize, mmu.PermRW); err != nil {
			t.Fatal(err)
		}
		refVA := dr.ClientRef(k, cs)
		b := prog.New(cliCode)
		b.Movi(6, 0).Label("loop").
			Movi(4, cliData+0x100).Movi(5, uint32(c)).St(4, 0, 5).
			IPCClientConnectSendOverReceive(cliData+0x100, 1, refVA, cliData+0x1000, dev.SectorSize/4).
			IPCClientDisconnect().
			Addi(6, 6, 1).Movi(5, 4).Blt(6, 5, "loop").
			// Publish first reply byte for checking.
			Movi(4, cliData+0x1000).Ldb(5, 4, 0).
			Movi(4, cliData).Stb(4, 0, 5).
			Halt()
		th, err := k.SpawnProgram(cs, cliCode, b.MustAssemble(), 10)
		if err != nil {
			t.Fatal(err)
		}
		clients = append(clients, th)
	}
	k.RunFor(4_000_000_000)
	for c, th := range clients {
		if !th.Exited {
			t.Fatalf("client %d stuck (state=%v pc=%#x)", c, th.State, th.Regs.PC)
		}
		out, err := k.ReadMem(spaces[c], cliData, 1)
		if err != nil {
			t.Fatal(err)
		}
		if out[0] != byte(c) {
			t.Fatalf("client %d read sector byte %d", c, out[0])
		}
	}
	if dr.Device.Reads != 12 {
		t.Fatalf("device reads = %d, want 12", dr.Device.Reads)
	}
}

func TestIRQLatchPreventsLostCompletion(t *testing.T) {
	// Raise with no waiter, then wait: the latched edge must complete the
	// wait immediately (the driver race the latch exists for).
	k := core.New(core.Config{Model: core.ModelProcess})
	s := k.NewSpace()
	b := prog.New(cliCode)
	b.ThreadSleepUS(1000). // IRQ fires while we sleep
				IRQWait(2).
				Movi(1, 99).
				Halt()
	th, err := k.SpawnProgram(s, cliCode, b.MustAssemble(), 10)
	if err != nil {
		t.Fatal(err)
	}
	k.Clock.After(100*200, func(uint64) { k.RaiseIRQ(2) }) // at 100 µs
	k.RunFor(1_000_000_000)
	if !th.Exited || th.ExitCode != 99 {
		t.Fatalf("latched IRQ lost: state=%v exited=%v", th.State, th.Exited)
	}
}
