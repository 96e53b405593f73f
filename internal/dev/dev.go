// Package dev implements a virtual DMA block device and its user-mode
// driver — the paper's §5.6 scenario made concrete: device driver code
// runs as an ordinary thread ("in user mode but in the kernel's address
// space" in Fluke; an ordinary space here), fields interrupts through
// irq_wait (interrupt dispatch to threads, as in L3/VSTa, §5.2), and
// serves clients over the same IPC the rest of the system uses. Driver
// service latency is therefore exactly the preemption latency Table 6
// measures.
//
// The device exposes a word-addressed register window (mapped with
// mmu.MapIO), masters DMA into an ordinary memory Region, and raises a
// virtual interrupt line on completion after a configurable latency in
// simulated cycles.
package dev

import (
	"fmt"

	"repro/internal/clock"
	"repro/internal/mem"
	"repro/internal/mmu"
)

// SectorSize is the device's sector size in bytes.
const SectorSize = 512

// Device register offsets (bytes, word-aligned).
const (
	RegCmd    = 0x00 // write CmdRead/CmdWrite to start an operation
	RegSector = 0x04 // first sector number
	RegCount  = 0x08 // sectors to transfer (0 treated as 1)
	RegStatus = 0x0C // read-only: see Status* constants
	RegDMAOff = 0x10 // byte offset into the DMA region
	RegIRQAck = 0x14 // write 1 to acknowledge a completion
)

// Commands.
const (
	CmdRead  = 1 // medium -> DMA region
	CmdWrite = 2 // DMA region -> medium
)

// Status values.
const (
	StatusIdle = 0
	StatusBusy = 1
	StatusDone = 2
	StatusErr  = 3
)

// DefaultLatency is the per-operation completion latency: 200 µs of
// simulated time, a fast late-90s disk cache hit.
const DefaultLatency = 200 * clock.CyclesPerMicrosecond

// BlockDevice is the virtual device. It implements mmu.IOHandler.
type BlockDevice struct {
	clk     *clock.Clock
	alloc   *mem.Allocator
	raise   func() // completion interrupt
	store   []byte // the medium
	dma     *mmu.Region
	latency uint64

	sector, count, dmaoff uint32
	status                uint32
	pendingCmd            uint32

	// Stats.
	Reads, Writes, Errors uint64
}

// New creates a device with capacity sectors of backing medium, mastering
// DMA into dma, raising completions via raise. latency 0 selects
// DefaultLatency.
func New(clk *clock.Clock, alloc *mem.Allocator, capacity int, dma *mmu.Region, latency uint64, raise func()) *BlockDevice {
	if latency == 0 {
		latency = DefaultLatency
	}
	return &BlockDevice{
		clk: clk, alloc: alloc, raise: raise,
		store: make([]byte, capacity*SectorSize),
		dma:   dma, latency: latency,
	}
}

// Capacity returns the medium size in sectors.
func (d *BlockDevice) Capacity() int { return len(d.store) / SectorSize }

// LoadMedium writes host bytes onto the medium (formatting/test fixture).
func (d *BlockDevice) LoadMedium(sector int, data []byte) error {
	off := sector * SectorSize
	if off < 0 || off+len(data) > len(d.store) {
		return fmt.Errorf("dev: LoadMedium beyond capacity")
	}
	copy(d.store[off:], data)
	return nil
}

// ReadMedium returns a copy of n bytes of the medium at sector.
func (d *BlockDevice) ReadMedium(sector, n int) []byte {
	out := make([]byte, n)
	copy(out, d.store[sector*SectorSize:])
	return out
}

// IORead32 implements mmu.IOHandler.
func (d *BlockDevice) IORead32(off uint32) uint32 {
	switch off {
	case RegCmd:
		return d.pendingCmd
	case RegSector:
		return d.sector
	case RegCount:
		return d.count
	case RegStatus:
		return d.status
	case RegDMAOff:
		return d.dmaoff
	default:
		return 0xFFFF_FFFF
	}
}

// IOWrite32 implements mmu.IOHandler.
func (d *BlockDevice) IOWrite32(off uint32, v uint32) {
	switch off {
	case RegSector:
		d.sector = v
	case RegCount:
		d.count = v
	case RegDMAOff:
		d.dmaoff = v
	case RegIRQAck:
		if d.status == StatusDone || d.status == StatusErr {
			d.status = StatusIdle
		}
	case RegCmd:
		d.startOp(v)
	}
}

func (d *BlockDevice) startOp(cmd uint32) {
	if d.status == StatusBusy {
		d.status = StatusErr
		d.Errors++
		d.raise()
		return
	}
	if cmd != CmdRead && cmd != CmdWrite {
		d.status = StatusErr
		d.Errors++
		d.raise()
		return
	}
	d.pendingCmd = cmd
	d.status = StatusBusy
	d.clk.After(d.latency, func(uint64) { d.complete() })
}

func (d *BlockDevice) complete() {
	cmd := d.pendingCmd
	d.pendingCmd = 0
	n := d.count
	if n == 0 {
		n = 1
	}
	bytes := int(n) * SectorSize
	mediumOff := int(d.sector) * SectorSize
	if mediumOff+bytes > len(d.store) || d.dmaoff%4 != 0 ||
		uint64(d.dmaoff)+uint64(bytes) > uint64(d.dma.Size) {
		d.status = StatusErr
		d.Errors++
		d.raise()
		return
	}
	var err error
	if cmd == CmdRead {
		err = d.dmaWrite(d.dmaoff, d.store[mediumOff:mediumOff+bytes])
		d.Reads++
	} else {
		d.dma.CopyOut(d.dmaoff, d.store[mediumOff:mediumOff+bytes])
		d.Writes++
	}
	if err != nil {
		d.status = StatusErr
		d.Errors++
	} else {
		d.status = StatusDone
	}
	d.raise()
}

// dmaWrite masters data into the DMA region, allocating absent pages and
// breaking copy-on-write shares first (see mmu.Region.DMAFrame): the
// device writes RAM, so no faulting is possible.
func (d *BlockDevice) dmaWrite(off uint32, data []byte) error {
	for i := 0; i < len(data); {
		po := mem.PageTrunc(off + uint32(i))
		inPage := int(off) + i - int(po)
		f, _, err := d.dma.DMAFrame(po, d.alloc, inPage == 0 && len(data)-i >= mem.PageSize)
		if err != nil {
			return err
		}
		i += copy(d.alloc.Writable(f)[inPage:], data[i:])
		f.Bump() // direct write: invalidate derived decodes
	}
	return nil
}

var _ mmu.IOHandler = (*BlockDevice)(nil)
