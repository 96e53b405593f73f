package dev_test

import (
	"bytes"
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
